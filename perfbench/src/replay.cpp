#include "replay.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "agu/codegen.hpp"
#include "agu/metrics.hpp"
#include "cli/kernel_io.hpp"
#include "cli/machine_resolve.hpp"
#include "cli/options.hpp"
#include "engine/fingerprint.hpp"
#include "engine/result_codec.hpp"
#include "engine/serialize.hpp"
#include "engine/strategy.hpp"
#include "ir/kernels.hpp"
#include "ir/layout.hpp"

namespace perfbench {
namespace {

namespace engine = dspaddr::engine;
using dspaddr::support::JsonValue;
using Clock = std::chrono::steady_clock;

constexpr const char* kSpanNames[kSpanNameCount] = {
    "request",         "support.json_parse",   "engine.kernel_from_json",
    "ir.parse",        "ir.lower",             "engine.fingerprint",
    "engine.run.ram_hit", "engine.run.store_hit", "engine.run.cold",
    "store.get",       "engine.decode_result", "core.allocate",
    "core.plan",       "agu.codegen",          "agu.simulate",
    "agu.metrics",     "engine.encode_result", "store.append",
    "engine.serialize", "engine.portfolio"};

/// Request members build_request understands.
constexpr const char* kKnownMembers[] = {
    "id",           "builtin",   "kernel_file", "kernel",
    "machine",      "registers", "modify_range", "modify_registers",
    "iterations",   "layout",    "strategy",    "phase2",
    "phase2_jobs"};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::int64_t positive_int(const JsonValue& json, const char* key,
                          std::int64_t min_value) {
  const std::int64_t value = json.find(key)->as_int();
  if (value < min_value) {
    throw std::invalid_argument(std::string(key) + ": value must be >= " +
                                std::to_string(min_value));
  }
  return value;
}

}  // namespace

const char* span_name(SpanName name) { return kSpanNames[name]; }

std::size_t Tracer::open(SpanName name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
  span.request = request_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) {
    stack_.pop_back();
  }
}

SpanSummary summarize(const std::vector<Span>& spans) {
  SpanSummary summary;
  std::vector<std::int64_t> covered(spans.size(), 0);
  std::vector<std::int64_t> last_child_end(spans.size(), 0);
  std::vector<bool> bad(spans.size(), false);
  // Spans are stored in open order, so every child follows its parent
  // and siblings follow each other.
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.parent < 0) {
      continue;
    }
    const std::size_t parent = static_cast<std::size_t>(span.parent);
    const Span& up = spans[parent];
    if (span.start_ns < up.start_ns || span.end_ns > up.end_ns ||
        span.start_ns < last_child_end[parent] || span.end_ns < span.start_ns ||
        span.request != up.request) {
      bad[parent] = true;
    }
    last_child_end[parent] = span.end_ns;
    covered[parent] += span.end_ns - span.start_ns;
  }
  // Per request: the self times of all its spans must add up to the
  // root's duration.
  std::int64_t self_sum = 0;
  std::int64_t root_duration = 0;
  bool request_bad = false;
  bool open_request = false;
  const auto finish_request = [&] {
    if (open_request) {
      ++summary.requests;
      if (request_bad || self_sum != root_duration) {
        ++summary.inconsistent_requests;
      }
    }
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.parent < 0) {
      finish_request();
      open_request = true;
      request_bad = span.name != kRequest;
      self_sum = 0;
      root_duration = span.end_ns - span.start_ns;
    }
    const std::int64_t self = span.end_ns - span.start_ns - covered[i];
    request_bad = request_bad || bad[i] || self < 0;
    self_sum += self;
    summary.self_ns[span.name].push_back(self);
  }
  finish_request();
  return summary;
}

engine::Request build_request(const JsonValue& json, Tracer* tracer) {
  for (const JsonValue::Member& member : json.members()) {
    bool known = false;
    for (const char* key : kKnownMembers) {
      known = known || member.first == key;
    }
    if (!known) {
      throw std::invalid_argument("unsupported request member '" +
                                  member.first + "'");
    }
  }
  engine::Request request;
  if (const JsonValue* builtin = json.find("builtin")) {
    request.kernel = dspaddr::ir::builtin_kernel(builtin->as_string());
  } else if (const JsonValue* file = json.find("kernel_file")) {
    Scope span(tracer, kIrParse);
    request.kernel = dspaddr::cli::load_kernel_file(file->as_string());
  } else {
    Scope span(tracer, kKernelFromJson);
    const JsonValue* kernel = json.find("kernel");
    if (kernel == nullptr) {
      throw std::invalid_argument("request has no kernel");
    }
    request.kernel = engine::kernel_from_json(*kernel);
  }

  dspaddr::cli::MachineSelector selector;
  selector.default_description = "request-defined AGU";
  if (const JsonValue* name = json.find("machine")) {
    selector.name = name->as_string();
  }
  if (json.find("registers") != nullptr) {
    selector.registers =
        static_cast<std::size_t>(positive_int(json, "registers", 1));
  }
  if (json.find("modify_range") != nullptr) {
    selector.modify_range = positive_int(json, "modify_range", 0);
  }
  if (json.find("modify_registers") != nullptr) {
    selector.modify_registers =
        static_cast<std::size_t>(positive_int(json, "modify_registers", 0));
  }
  request.machine = dspaddr::cli::resolve_machine(selector);

  if (json.find("iterations") != nullptr) {
    request.iterations =
        static_cast<std::uint64_t>(positive_int(json, "iterations", 1));
  }
  if (const JsonValue* layout = json.find("layout")) {
    request.layout = layout->as_string();
  }
  if (const JsonValue* strategy = json.find("strategy")) {
    request.strategy = strategy->as_string();
  }
  if (const JsonValue* phase2 = json.find("phase2")) {
    request.phase2.mode = dspaddr::cli::parse_phase2_mode(phase2->as_string());
  }
  if (json.find("phase2_jobs") != nullptr) {
    request.phase2.jobs =
        static_cast<std::size_t>(positive_int(json, "phase2_jobs", 1));
  }
  return request;
}

dspaddr::ir::AccessSequence lower_request(const engine::Request& request) {
  const engine::LayoutStrategy* layout =
      engine::StrategyRegistry::builtin().layout(request.layout);
  if (layout == nullptr) {
    throw std::invalid_argument("unknown layout '" + request.layout + "'");
  }
  return dspaddr::ir::lower(request.kernel,
                            layout->place(request.kernel, request.machine));
}

std::string answer_line(std::uint64_t index, const engine::Result& result) {
  // The member order of serve's answers: the id echo, then the result.
  JsonValue response = JsonValue::object();
  response.set("id", JsonValue::number(static_cast<std::int64_t>(index)));
  const JsonValue result_json = engine::result_to_json(result);
  for (const JsonValue::Member& member : result_json.members()) {
    response.set(member.first, member.second);
  }
  return response.dump();
}

Replay::Replay(const Options& options, Tracer* tracer)
    : tracer_(tracer),
      cache_(options.cache_capacity, 8),
      store_(options.store_path.empty()
                 ? nullptr
                 : std::make_shared<dspaddr::store::ResultStore>(
                       dspaddr::store::ResultStore::Options{options.store_path,
                                                            false})),
      portfolio_engine_([&] {
        engine::Engine::Options engine_options(options.cache_capacity);
        engine_options.store = store_;
        return engine_options;
      }()),
      portfolio_(portfolio_engine_, [&] {
        engine::PortfolioOptions portfolio_options;
        portfolio_options.jobs = options.jobs;
        return portfolio_options;
      }()) {}

std::uint64_t Replay::racers_launched() const {
  return portfolio_engine_.metrics()
      ->counter("engine.portfolio.racers_launched")
      .value();
}

std::uint64_t Replay::racers_cancelled() const {
  return portfolio_engine_.metrics()
      ->counter("engine.portfolio.racers_cancelled")
      .value();
}

ReplayStep Replay::run(std::uint64_t index, const std::string& line) {
  ReplayStep step;
  if (tracer_ != nullptr) {
    tracer_->set_request(index);
  }
  Scope root(tracer_, kRequest);
  try {
    JsonValue json;
    {
      Scope span(tracer_, kJsonParse);
      json = JsonValue::parse(line);
    }
    const engine::Request request = build_request(json, tracer_);
    if (engine::Portfolio::is_auto(request)) {
      Scope span(tracer_, kPortfolio);
      step.result = portfolio_.run(request);
      step.tier = Tier::kPortfolio;
    } else {
      step.result = run_engine(request, step.tier);
    }
    Scope span(tracer_, kSerialize);
    step.line = answer_line(index, step.result);
  } catch (const std::exception& e) {
    JsonValue response = JsonValue::object();
    response.set("id", JsonValue::number(static_cast<std::int64_t>(index)));
    JsonValue error = JsonValue::object();
    error.set("stage", JsonValue::string("request"));
    error.set("message", JsonValue::string(e.what()));
    response.set("error", std::move(error));
    step.tier = Tier::kError;
    step.line = response.dump();
  }
  return step;
}

// Mirrors engine::Engine::run (engine/engine.cpp) minus its metrics
// instruments: the same stages, cache protocol, store probe and
// write-through, with a span around each layer call.
engine::Result Replay::run_engine(const engine::Request& request, Tier& tier) {
  using engine::Stage;
  const Clock::time_point start = Clock::now();
  Scope run_span(tracer_, kRunCold);
  tier = Tier::kCold;
  engine::Result result;
  result.kernel = request.kernel;
  result.machine = request.machine;
  result.stop_after = request.stop_after;
  result.layout = request.layout;
  result.strategy = request.strategy;

  const auto run_stage = [&](Stage stage, SpanName name, const auto& body) {
    Scope span(tracer_, name);
    const Clock::time_point stage_start = Clock::now();
    bool ok = true;
    try {
      body();
    } catch (const std::exception& e) {
      result.error = engine::StageError{stage, e.what()};
      ok = false;
    }
    result.stage_ms[static_cast<std::size_t>(stage)] = ms_since(stage_start);
    return ok && static_cast<int>(stage) < static_cast<int>(request.stop_after);
  };

  dspaddr::ir::AccessSequence seq;
  bool proceed = run_stage(Stage::kLower, kIrLower, [&] {
    const engine::LayoutStrategy* layout_strategy =
        engine::StrategyRegistry::builtin().layout(request.layout);
    if (layout_strategy == nullptr) {
      throw std::invalid_argument("unknown layout strategy '" +
                                  request.layout + "'");
    }
    const dspaddr::ir::ArrayLayout layout =
        layout_strategy->place(request.kernel, request.machine);
    result.layout_extent = dspaddr::ir::layout_extent(request.kernel, layout);
    seq = dspaddr::ir::lower(request.kernel, layout);
    result.accesses = seq.size();
  });
  if (result.error.has_value()) {
    result.total_ms = ms_since(start);
    return result;
  }

  std::string key;
  {
    Scope span(tracer_, kFingerprint);
    key = engine::request_fingerprint(request, seq);
  }
  ++cache_lookups_;
  if (const std::shared_ptr<const engine::Result> cached =
          cache_.lookup_or_begin(key)) {
    engine::Result out = *cached;
    out.kernel = request.kernel;
    out.machine = request.machine;
    out.cache_hit = true;
    out.total_ms = ms_since(start);
    ++ram_hits_;
    tier = Tier::kRamHit;
    run_span.rename(kRunRamHit);
    return out;
  }

  if (store_ != nullptr) {
    std::optional<std::string> stored;
    {
      Scope span(tracer_, kStoreGet);
      ++store_gets_;
      stored = store_->get(key);
    }
    if (stored.has_value()) {
      std::optional<engine::Result> decoded;
      {
        Scope span(tracer_, kDecodeResult);
        try {
          decoded = engine::decode_result(*stored);
        } catch (const std::exception&) {
        }
      }
      if (decoded.has_value()) {
        cache_.publish(key, std::make_shared<const engine::Result>(*decoded));
        engine::Result out = std::move(*decoded);
        out.kernel = request.kernel;
        out.machine = request.machine;
        out.store_hit = true;
        out.total_ms = ms_since(start);
        ++store_hits_;
        tier = Tier::kStoreHit;
        run_span.rename(kRunStoreHit);
        return out;
      }
    }
  }

  std::optional<dspaddr::core::Allocation> allocation;
  try {
    if (proceed) {
      proceed = run_stage(Stage::kAllocate, kAllocate, [&] {
        const engine::AllocationStrategy* strategy =
            engine::StrategyRegistry::builtin().allocation(request.strategy);
        if (strategy == nullptr) {
          throw std::invalid_argument("unknown allocation strategy '" +
                                      request.strategy + "'");
        }
        dspaddr::core::ProblemConfig config;
        config.modify_range = request.machine.modify_range();
        config.modify_lo = request.machine.modify_lo;
        config.modify_hi = request.machine.modify_hi;
        config.free_widths = request.machine.free_widths;
        config.registers = request.machine.address_registers();
        config.phase2 = request.phase2;
        allocation.emplace(strategy->allocate(seq, config));
        result.stats = allocation->stats();
        result.k_tilde = result.stats.k_tilde;
        result.allocation_cost = allocation->cost();
        result.intra_cost = allocation->intra_cost();
        result.wrap_cost = allocation->wrap_cost();
        result.allocation_text = allocation->to_string(seq);
      });
    }
    if (proceed) {
      proceed = run_stage(Stage::kPlan, kPlan, [&] {
        result.plan = dspaddr::core::plan_modify_registers(
            seq, *allocation, request.machine.modify_registers());
      });
    }
    if (proceed) {
      proceed = run_stage(Stage::kCodegen, kCodegen, [&] {
        result.program = dspaddr::agu::generate_code(
            seq, *allocation, result.plan, request.machine.addressing);
      });
    }
    if (proceed) {
      proceed = run_stage(Stage::kSimulate, kSimulate, [&] {
        result.iterations = request.iterations.value_or(
            static_cast<std::uint64_t>(request.kernel.iterations()));
        result.sim = dspaddr::agu::Simulator{}.run(result.program, seq,
                                                   result.iterations);
        result.verified = dspaddr::agu::verified_against_cost(
            result.sim, result.iterations, result.plan.residual_cost);
      });
    }
    if (proceed) {
      run_stage(Stage::kMetrics, kMetrics, [&] {
        const dspaddr::agu::AddressingComparison comparison =
            dspaddr::agu::compare_addressing(request.kernel, *allocation);
        result.baseline_size_words = comparison.baseline.size_words;
        result.baseline_cycles = comparison.baseline.cycles;
        result.optimized_size_words = comparison.optimized.size_words;
        result.optimized_cycles = comparison.optimized.cycles;
        result.size_reduction_percent = comparison.size_reduction_percent;
        result.speed_reduction_percent = comparison.speed_reduction_percent;
      });
    }
  } catch (...) {
    cache_.abort(key);
    throw;
  }

  result.total_ms = ms_since(start);
  cache_.publish(key, std::make_shared<const engine::Result>(result));
  if (store_ != nullptr && result.ok()) {
    try {
      std::string encoded;
      {
        Scope span(tracer_, kEncodeResult);
        encoded = engine::encode_result(result);
      }
      Scope span(tracer_, kStoreAppend);
      store_->append(key, encoded);
    } catch (const std::exception&) {
    }
  }
  return result;
}

}  // namespace perfbench
