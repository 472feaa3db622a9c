#include "serve_client.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace perfbench {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

ServeProcess::ServeProcess(const std::string& binary,
                           const std::vector<std::string>& args) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) {
    fail("pipe");
  }
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    fail("pipe");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], STDOUT_FILENO);

  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) {
    argv.push_back(arg.data());
  }
  argv.push_back(nullptr);

  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  to_child_ = in_pipe[1];
  from_child_ = out_pipe[0];
  if (rc != 0) {
    pid_ = -1;
    close_fd(to_child_);
    close_fd(from_child_);
    errno = rc;
    fail("cannot start " + binary);
  }
}

ServeProcess::~ServeProcess() {
  close_fd(to_child_);
  close_fd(from_child_);
  if (pid_ > 0) {
    // Closing stdin ends the serve loop; a child stuck elsewhere is
    // killed so the benchmark never leaves a process behind.
    int status = 0;
    for (int i = 0; i < 200; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        return;
      }
      ::usleep(10'000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
}

void ServeProcess::write_line(const std::string& line) {
  std::string data = line;
  data.push_back('\n');
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(to_child_, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      fail("write to serve");
    }
    done += static_cast<std::size_t>(n);
  }
}

std::string ServeProcess::read_line() {
  for (;;) {
    const std::size_t newline = buffer_.find('\n', buffer_pos_);
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(buffer_pos_, newline - buffer_pos_);
      buffer_pos_ = newline + 1;
      if (buffer_pos_ == buffer_.size()) {
        buffer_.clear();
        buffer_pos_ = 0;
      }
      return line;
    }
    if (buffer_pos_ > 0) {
      buffer_.erase(0, buffer_pos_);
      buffer_pos_ = 0;
    }
    struct pollfd ready = {from_child_, POLLIN, 0};
    const int polled = ::poll(&ready, 1, 60'000);
    if (polled == 0) {
      throw std::runtime_error("serve sent no answer for 60 s");
    }
    if (polled < 0) {
      if (errno == EINTR) {
        continue;
      }
      fail("poll serve");
    }
    char chunk[65536];
    const ssize_t n = ::read(from_child_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      fail("read from serve");
    }
    if (n == 0) {
      throw std::runtime_error("serve closed its output unexpectedly");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

double ServeProcess::finish() {
  close_fd(to_child_);
  int status = 0;
  struct rusage usage {};
  pid_t waited;
  do {
    waited = ::wait4(pid_, &status, 0, &usage);
  } while (waited < 0 && errno == EINTR);
  if (waited != pid_) {
    fail("wait for serve");
  }
  pid_ = -1;
  close_fd(from_child_);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("serve exited abnormally (status " +
                             std::to_string(status) + ")");
  }
  // ru_maxrss is in KiB on Linux.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ServeProcess::cpu_seconds() const {
  std::ifstream file("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3,
  // utime and stime (clock ticks, whole process) are fields 14 and 15.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) {
    throw std::runtime_error("cannot read the CPU time of serve");
  }
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) {
      ticks += std::stod(field);
    }
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

Boot boot_and_probe(const std::string& binary,
                    const std::vector<std::string>& args) {
  Boot boot;
  const Clock::time_point start = Clock::now();
  boot.process = std::make_unique<ServeProcess>(binary, args);
  boot.process->write_line("{\"stats\":true}");
  boot.stats_line = boot.process->read_line();
  boot.setup_s = seconds_between(start, Clock::now());
  return boot;
}

std::string request_line(std::uint64_t index, const std::string& body) {
  return "{\"id\":" + std::to_string(index) + "," + body + "}";
}

LoopResult run_closed_loop(ServeProcess& process, RequestStream& stream,
                           const LoopOptions& options,
                           const std::function<void(Answer&)>& on_answer) {
  struct Pending {
    std::uint64_t index;
    BenchRequest request;
    Clock::time_point sent_at;
  };
  LoopResult result;
  std::uint64_t sent = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point measure_start =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.warmup_s));
  const double window_end = options.warmup_s + options.seconds;
  Clock::time_point last_measured = measure_start;
  std::deque<Pending> pending;
  double cpu_start = -1.0;

  const auto may_send = [&] {
    return !stream.at_pass_boundary() ||
           seconds_between(start, Clock::now()) < window_end;
  };
  const auto send = [&] {
    Pending next{sent++, stream.next(), {}};
    const std::string line = request_line(next.index, next.request.body);
    next.sent_at = Clock::now();
    if (cpu_start < 0.0 && next.sent_at >= measure_start) {
      cpu_start = process.cpu_seconds();
      next.sent_at = Clock::now();
    }
    process.write_line(line);
    pending.push_back(std::move(next));
  };

  while (pending.size() < options.in_flight && may_send()) {
    send();
  }
  while (!pending.empty()) {
    Answer answer;
    answer.line = process.read_line();
    const Clock::time_point now = Clock::now();
    Pending& done = pending.front();
    answer.index = done.index;
    answer.request = std::move(done.request);
    answer.latency_us =
        std::chrono::duration<double, std::micro>(now - done.sent_at).count();
    answer.measured = done.sent_at >= measure_start;
    pending.pop_front();
    if (answer.measured) {
      ++result.measured;
      last_measured = now;
    }
    while (pending.size() < options.in_flight && may_send()) {
      send();
    }
    on_answer(answer);
  }
  result.measured_s = seconds_between(measure_start, last_measured);
  if (cpu_start >= 0.0) {
    result.serve_cpu_s = process.cpu_seconds() - cpu_start;
  }
  return result;
}

}  // namespace perfbench
