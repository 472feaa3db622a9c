// A `dspaddr serve` child process driven over its stdin/stdout pipes,
// and the closed request loop the end-to-end metrics are measured with.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// One serve session. The destructor closes the pipes and reaps the
/// child, so no process outlives the object.
class ServeProcess {
 public:
  /// Spawns `binary` with `args` (argv[1..]); throws std::runtime_error
  /// when the process cannot be started.
  ServeProcess(const std::string& binary, const std::vector<std::string>& args);
  ~ServeProcess();

  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  /// Writes one request line (a newline is appended); throws when the
  /// child has gone away.
  void write_line(const std::string& line);

  /// Blocks until one response line is available; throws at EOF and
  /// when serve stays silent for a minute (no request takes that long).
  std::string read_line();

  /// Closes the child's stdin, waits for it to exit and returns its
  /// peak resident set in MiB; throws when it exits abnormally.
  double finish();

  /// CPU seconds (user + system, all threads) the child has used so
  /// far. Time the hypervisor gave to other guests is not counted.
  double cpu_seconds() const;

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
  std::size_t buffer_pos_ = 0;
};

/// A freshly booted session and its set-up time.
struct Boot {
  std::unique_ptr<ServeProcess> process;
  /// Seconds from spawn to the answer of a `{"stats":true}` probe —
  /// process start plus store recovery.
  double setup_s = 0.0;
  std::string stats_line;
};

Boot boot_and_probe(const std::string& binary,
                    const std::vector<std::string>& args);

/// One answered request of a closed loop.
struct Answer {
  std::uint64_t index = 0;
  BenchRequest request;
  std::string line;
  double latency_us = 0.0;
  /// Sent inside the measured window (after the warm-up).
  bool measured = false;
};

struct LoopOptions {
  /// Requests outstanding at any time (each caller waits for its
  /// answer before sending the next request).
  std::size_t in_flight = 4;
  /// Requests sent before this many seconds warm the session up and
  /// are checked but not timed.
  double warmup_s = 0.0;
  /// Length of the measured window.
  double seconds = 10.0;
};

struct LoopResult {
  std::uint64_t measured = 0;
  /// From the end of the warm-up to the last measured answer.
  double measured_s = 0.0;
  /// CPU seconds serve used from the first measured request to the
  /// last answer.
  double serve_cpu_s = 0.0;
};

/// Runs a closed loop over `stream` against `process`. New requests are
/// sent until the window ends; a stream that reports pass boundaries
/// only stops at one, so every pass is complete. Each answer is timed
/// from the write of its request to the read of its line and handed to
/// `on_answer` (serve answers strictly in request order).
LoopResult run_closed_loop(ServeProcess& process, RequestStream& stream,
                           const LoopOptions& options,
                           const std::function<void(Answer&)>& on_answer);

/// The request line for `body` with id `index`.
std::string request_line(std::uint64_t index, const std::string& body);

}  // namespace perfbench
