// The traced replay: the serve request pipeline rebuilt in process from
// each layer's public functions, with a span around every layer call.
//
// Spans live in this benchmark only; the library is unchanged. Each
// span records its name, start, end, parent and request id, spans stay
// in memory until the run ends, and a span's self time is its duration
// minus the time its children cover. The replay mirrors
// engine::Engine::run step for step (RAM cache, disk store, stages,
// write-through) and serve's answer rendering, and the benchmark checks
// that every answer it computes equals Engine::run's, so this copy
// cannot drift from the real pipeline unnoticed.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/portfolio.hpp"
#include "runtime/sharded_cache.hpp"
#include "store/result_store.hpp"
#include "support/json.hpp"

namespace perfbench {

/// The traced layers. kRequest is the root span of every request.
enum SpanName : std::uint16_t {
  kRequest,
  kJsonParse,
  kKernelFromJson,
  kIrParse,
  kIrLower,
  kFingerprint,
  kRunRamHit,
  kRunStoreHit,
  kRunCold,
  kStoreGet,
  kDecodeResult,
  kAllocate,
  kPlan,
  kCodegen,
  kSimulate,
  kMetrics,
  kEncodeResult,
  kStoreAppend,
  kSerialize,
  kPortfolio,
  kSpanNameCount,
};

/// "request", "support.json_parse", ..., "engine.portfolio".
const char* span_name(SpanName name);

struct Span {
  SpanName name = kRequest;
  /// Index of the parent span in Tracer::spans(); -1 for a root.
  std::int32_t parent = -1;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder for one thread.
class Tracer {
 public:
  void set_request(std::uint64_t request) { request_ = request; }
  std::size_t open(SpanName name);
  void close(std::size_t index);
  void rename(std::size_t index, SpanName name) { spans_[index].name = name; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::uint64_t request_ = 0;
};

/// Opens a span for its lifetime; does nothing without a tracer.
class Scope {
 public:
  Scope(Tracer* tracer, SpanName name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->close(index_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void rename(SpanName name) {
    if (tracer_ != nullptr) {
      tracer_->rename(index_, name);
    }
  }

 private:
  Tracer* tracer_;
  std::size_t index_;
};

/// Per-layer totals of one traced run.
struct SpanSummary {
  /// Self times in nanoseconds, per span name.
  std::array<std::vector<std::int64_t>, kSpanNameCount> self_ns;
  /// Requests whose spans do not nest (a child outside its parent or
  /// overlapping a sibling) or whose self times do not sum to the root
  /// span's duration.
  std::uint64_t inconsistent_requests = 0;
  std::uint64_t requests = 0;
};

SpanSummary summarize(const std::vector<Span>& spans);

/// The engine request a serve request object describes, resolved the
/// way `dspaddr serve` resolves it (the members the benchmark's
/// streams use; any other member is rejected). Kernel parsing is traced
/// when `tracer` is given.
dspaddr::engine::Request build_request(const dspaddr::support::JsonValue& json,
                                       Tracer* tracer = nullptr);

/// The lowered access sequence of `request` under its layout.
dspaddr::ir::AccessSequence lower_request(
    const dspaddr::engine::Request& request);

/// Serve's answer line for `result`, with id `index`.
std::string answer_line(std::uint64_t index,
                        const dspaddr::engine::Result& result);

/// How one replayed request was answered.
enum class Tier { kRamHit, kStoreHit, kCold, kPortfolio, kError };

struct ReplayStep {
  Tier tier = Tier::kError;
  std::string line;
  dspaddr::engine::Result result;
};

/// One in-process stand-in for a serve session: a RAM cache over an
/// optional disk store, a portfolio for "auto" requests, and the
/// engine's stage sequence, each layer call wrapped in a span.
class Replay {
 public:
  struct Options {
    std::size_t cache_capacity = 256;
    /// Empty: RAM only.
    std::string store_path;
    /// Portfolio racers in flight (serve's --jobs).
    std::size_t jobs = 1;
  };

  /// `tracer` may be null (the untraced replay).
  Replay(const Options& options, Tracer* tracer);

  ReplayStep run(std::uint64_t index, const std::string& line);

  std::uint64_t cache_lookups() const { return cache_lookups_; }
  std::uint64_t ram_hits() const { return ram_hits_; }
  std::uint64_t store_gets() const { return store_gets_; }
  std::uint64_t store_hits() const { return store_hits_; }
  /// Racers the portfolio launched and cancelled.
  std::uint64_t racers_launched() const;
  std::uint64_t racers_cancelled() const;

 private:
  dspaddr::engine::Result run_engine(const dspaddr::engine::Request& request,
                                     Tier& tier);

  Tracer* tracer_;
  dspaddr::runtime::ShardedLruCache<dspaddr::engine::Result> cache_;
  std::shared_ptr<dspaddr::store::ResultStore> store_;
  /// Serves "auto" requests, whose race runs inside the portfolio.
  dspaddr::engine::Engine portfolio_engine_;
  dspaddr::engine::Portfolio portfolio_;
  std::uint64_t cache_lookups_ = 0;
  std::uint64_t ram_hits_ = 0;
  std::uint64_t store_gets_ = 0;
  std::uint64_t store_hits_ = 0;
};

}  // namespace perfbench
