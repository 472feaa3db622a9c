// The benchmark's three request streams, generated from a seed.
//
// A request is the body of one `dspaddr serve` JSON-lines request (its
// members without the braces and without "id"); the serve client and
// the in-process replay both draw the same stream from the same seed,
// so the traced replay sees exactly the requests the measured session
// sent.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "support/rng.hpp"

namespace perfbench {

enum class Workload { kServeHot, kCompileCold, kProofLadder };

/// "serve_hot", "compile_cold", "proof_ladder".
const char* workload_name(Workload workload);

/// Inverse of workload_name; false for unknown names.
bool parse_workload(const std::string& name, Workload& out);

/// One request of a stream.
struct BenchRequest {
  std::string body;
  /// serve_hot: index into hot_corpus(); -1 for a minted cold kernel.
  int corpus_index = -1;
  /// proof_ladder: index into ladder_rungs().
  int rung = -1;
};

/// CPUs this process could run on when it first asked (pinning later
/// does not change the answer).
std::size_t available_cpus();

/// Restricts this process, and the children and threads it starts from
/// now on, to one of its CPUs. Returns that CPU, or -1 when the
/// affinity cannot be set (the run then goes on unpinned).
int pin_to_one_cpu();

/// Worker threads of the serve session: min(4, available_cpus()).
std::size_t bench_jobs();

/// Phase-2 jobs of the proof requests: min(2, available_cpus()). With
/// every vCPU of a shared 4-vCPU host busy, the hypervisor took 2-16%
/// of the CPU time and the ladder's throughput spread by 27% over ten
/// runs; two solver threads still exercise work stealing.
std::size_t ladder_jobs();

/// The serve_hot corpus: every builtin kernel x K 1..4 x M 0..2 on
/// `wide4`, 64 simulated iterations (156 requests).
const std::vector<std::string>& hot_corpus();

/// One proof_ladder instance.
struct LadderRung {
  std::string name;
  /// Inline kernel member ("kernel":{...}) and machine members; the
  /// stream appends phase-2 settings and a per-pass iteration count.
  std::string body;
};

/// The proof_ladder instances, in canonical order. Kernel files are
/// read from `workloads/` relative to the working directory.
const std::vector<LadderRung>& ladder_rungs();

/// Appends the phase-2 members every proof_ladder request carries.
std::string ladder_request_body(const LadderRung& rung,
                                std::uint64_t iterations);

/// A deterministic request stream for `workload`.
class RequestStream {
 public:
  RequestStream(Workload workload, std::uint64_t seed);

  BenchRequest next();

  /// proof_ladder: true when the next request starts a new pass over
  /// the ladder (a run only stops at pass boundaries). Always true for
  /// the other workloads.
  bool at_pass_boundary() const;

 private:
  BenchRequest next_hot();
  BenchRequest next_cold();
  BenchRequest next_ladder();

  Workload workload_;
  std::uint64_t seed_;
  dspaddr::support::Rng rng_;
  std::uint64_t serial_ = 0;
  /// compile_cold: hashes of the canonical bodies already sent (every
  /// request is unique, so no answer is served from a cache; a hash
  /// collision only redraws).
  std::unordered_set<std::size_t> seen_;
  /// proof_ladder: the current pass's rung order and position.
  std::vector<int> pass_order_;
  std::size_t pass_position_ = 0;
  std::uint64_t pass_ = 0;
};

}  // namespace perfbench
