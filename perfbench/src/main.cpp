// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --dspaddr <path> --workload <name> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures what a user of `dspaddr serve` sees: this one
// process spawns `dspaddr serve --jobs J --store <tmp>` with
// J = min(4, CPUs), feeds it JSON-lines requests over its pipes one at
// a time, as a caller that waits for each answer, and times every
// request from the write of its line to the read of its answer.
// --trace 1 replays the same request stream in process through each
// layer's public functions with spans around every call (replay.hpp)
// and reports per-layer self times, counts and ratios.
//
// Every answer goes through the correctness gate (checks.hpp); a
// failed check counts like an error answer. Human-readable lines come
// first; the last line of stdout is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "engine/engine.hpp"
#include "engine/serialize.hpp"
#include "replay.hpp"
#include "serve_client.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace engine = dspaddr::engine;
using dspaddr::support::JsonValue;

/// Serve sessions booted per run to measure set-up time (the last one
/// is the measured session).
constexpr int kBoots = 41;
/// Requests in flight. One caller times each request alone: serve
/// answers in order, so with several in flight a stall of one delays
/// the answers queued behind it. With four callers the median latency
/// spread by a third between runs of the same code on a shared 4-vCPU
/// host.
constexpr std::size_t kCallers = 1;

struct Args {
  std::string dspaddr;
  Workload workload = Workload::kServeHot;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --dspaddr <path> --workload "
               "serve_hot|compile_cold|proof_ladder --seed <n> --seconds "
               "<s> --trace 0|1\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--dspaddr") {
        args.dspaddr = value;
      } else if (flag == "--workload") {
        have_workload = parse_workload(value, args.workload);
        if (!have_workload) {
          usage("unknown workload '" + value + "'");
        }
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        args.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || args.dspaddr.empty() || !(args.seconds > 0.0)) {
    usage("--dspaddr, --workload and a positive --seconds are required");
  }
  return args;
}

/// 1-based nearest rank of percentile `p` among `n` samples.
std::size_t nearest_rank(double p, std::size_t n) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
double percentile(const std::vector<double>& sorted, double p) {
  return sorted[nearest_rank(p, sorted.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// A per-run scratch directory for store files, removed on every exit
/// path.
class TempDir {
 public:
  TempDir() {
    std::filesystem::create_directories(".bench_build/perfbench-tmp");
    std::string pattern = ".bench_build/perfbench-tmp/run-XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a scratch directory");
    }
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

/// The outcome of one run: the gate's verdict and the metrics, plus
/// report lines for people.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    if (++failed <= 5) {
      std::cerr << "perfbench: check failed: " << why << "\n";
    }
  }
  void note(const std::string& line) { notes.push_back(line); }
};

std::string fixed(double value, int digits) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(digits) << value;
  return out.str();
}

/// Answer-quality totals over the measured answers.
struct Quality {
  std::uint64_t answers = 0;
  std::uint64_t proven = 0;
  std::int64_t cost_sum = 0;
  std::int64_t gap_sum = 0;
  std::int64_t exact_cost_sum = 0;
  std::int64_t exact_bound_sum = 0;

  void add(const AnswerView& view) {
    ++answers;
    proven += view.proven ? 1 : 0;
    cost_sum += view.cost;
    gap_sum += view.gap;
    if (view.exact) {
      exact_cost_sum += view.cost;
      exact_bound_sum += view.lower_bound;
    }
  }
};

/// The serve command line of a session.
std::vector<std::string> serve_args(const std::string& store,
                                    std::size_t cache_capacity) {
  std::vector<std::string> args = {"serve", "--jobs",
                                   std::to_string(bench_jobs()), "--store",
                                   store};
  if (cache_capacity > 0) {
    args.push_back("--cache-capacity");
    args.push_back(std::to_string(cache_capacity));
  }
  return args;
}

/// Boots kBoots - 1 throw-away sessions and one measured session,
/// recording each boot's set-up time; returns the measured session.
Boot boot_sessions(const Args& args, const std::vector<std::string>& serve,
                   std::vector<double>& setup_samples) {
  for (int i = 0; i + 1 < kBoots; ++i) {
    Boot boot = boot_and_probe(args.dspaddr, serve);
    setup_samples.push_back(boot.setup_s);
    boot.process->finish();
  }
  Boot boot = boot_and_probe(args.dspaddr, serve);
  setup_samples.push_back(boot.setup_s);
  return boot;
}

/// The engine answer of a store-less in-process engine, rendered like
/// serve renders it but without the id.
std::string reference_line(engine::Engine& reference, const std::string& body) {
  const engine::Request request =
      build_request(JsonValue::parse("{" + body + "}"));
  return engine::result_to_json_line(reference.run(request));
}

/// The measured session of a run, with every answer kept for checking
/// after the clock stops.
struct Session {
  std::vector<double> setup;
  std::vector<Answer> answers;
  LoopResult loop;
  double peak_rss_mb = 0.0;
};

Session run_session(const Args& args, const std::vector<std::string>& serve,
                    const LoopOptions& options) {
  Session session;
  Boot boot = boot_sessions(args, serve, session.setup);
  RequestStream stream(args.workload, args.seed);
  session.loop = run_closed_loop(
      *boot.process, stream, options,
      [&](Answer& answer) { session.answers.push_back(std::move(answer)); });
  session.peak_rss_mb = boot.process->finish();
  return session;
}

/// The checks every answer passes: those of check_answer, and the id of
/// its own request.
std::string answer_problem(const Answer& answer, const AnswerView& view) {
  const std::string problem = check_answer(view);
  if (problem.empty() && strip_id(answer.line, answer.index).empty()) {
    return "answer carries the wrong id";
  }
  return problem;
}

/// Fills the end-to-end metrics shared by every workload from the
/// latencies of the measured answers. The bounded timings are the
/// throughput of the one caller and serve's CPU time per answer, both
/// averages over the whole run. The shared host's speed changes from
/// one second to the next; an average over the run follows the share of
/// slow seconds smoothly, where the median jumps between the slow and
/// the fast cluster of latencies. The median and tail are printed.
void end_to_end_metrics(Report& report, const std::vector<double>& setup,
                        std::vector<double> latencies, const LoopResult& loop,
                        double peak_rss_mb, const Quality& quality) {
  if (latencies.empty()) {
    throw std::runtime_error("no measured answers");
  }
  std::sort(latencies.begin(), latencies.end());
  const std::size_t n = latencies.size();
  const double p50_us = percentile(latencies, 50);
  const double rps = static_cast<double>(n) / loop.measured_s;
  const double cpu_us = loop.serve_cpu_s * 1e6 / static_cast<double>(n);
  const double error_rate = static_cast<double>(report.failed) /
                            static_cast<double>(report.attempted);
  const double cost_to_bound =
      quality.exact_bound_sum > 0
          ? static_cast<double>(quality.exact_cost_sum) /
                static_cast<double>(quality.exact_bound_sum)
          : 1.0;
  const double answers =
      static_cast<double>(std::max<std::uint64_t>(1, quality.answers));

  report.metric("setup_s", median(setup), "s");
  report.metric("throughput_rps", rps, "1/s");
  report.metric("cpu_us_per_request", cpu_us, "us");
  report.metric("addr_cost_mean", static_cast<double>(quality.cost_sum) / answers,
                "cost");
  report.metric("proven_share", static_cast<double>(quality.proven) / answers,
                "ratio");
  report.metric("cost_to_bound", cost_to_bound, "ratio");

  report.note("setup_s: median " + fixed(median(setup), 4) + " s over " +
              std::to_string(setup.size()) + " boots");
  // Each printed percentile leaves at least ten samples beyond it.
  std::string line = "latency (n=" + std::to_string(n) + "): p50_us " +
                     fixed(p50_us, 1);
  for (const double p : {90.0, 99.0}) {
    const std::size_t beyond = n - nearest_rank(p, n);
    if (beyond >= 10) {
      line += ", p" + fixed(p, 0) + "_us " +
              fixed(percentile(latencies, p), 1) + " (" +
              std::to_string(beyond) + " beyond)";
    }
  }
  report.note(line);
  report.note("throughput_rps: " + fixed(rps, 1) + " (" +
              std::to_string(n) + " answers in " + fixed(loop.measured_s, 3) +
              " s)");
  report.note("cpu_us_per_request: " + fixed(cpu_us, 2) + " (serve used " +
              fixed(loop.serve_cpu_s, 3) + " CPU s)");
  report.note("error_rate: " + fixed(error_rate, 6) + " (" +
              std::to_string(report.failed) + " of " +
              std::to_string(report.attempted) + " requests)");
  report.note("peak_rss_mb: " + fixed(peak_rss_mb, 1) + " MiB");
  report.note("addr_cost_sum: " + std::to_string(quality.cost_sum) +
              " over " + std::to_string(quality.answers) + " answers");
  report.note("proven_share: " + std::to_string(quality.proven) + " of " +
              std::to_string(quality.answers));
  report.note("gap_sum: " + std::to_string(quality.gap_sum));
  report.note("cost_to_bound: " + std::to_string(quality.exact_cost_sum) +
              " / " + std::to_string(quality.exact_bound_sum));
}

// ------------------------------------------------------------ serve_hot

void measure_serve_hot(const Args& args, const TempDir& dir, Report& report) {
  const std::vector<std::string>& corpus = hot_corpus();
  const std::string store = dir.file("hot.log");

  // Reference answers: a fresh store-less in-process engine.
  std::vector<std::string> reference(corpus.size());
  std::vector<AnswerView> reference_view(corpus.size());
  {
    engine::Engine fresh;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      reference[i] = reference_line(fresh, corpus[i]);
      reference_view[i] = view_answer(reference[i]);
      const std::string problem = check_answer(reference_view[i]);
      if (!problem.empty()) {
        report.fail("reference " + std::to_string(i) + ": " + problem);
      }
    }
  }

  // A previous boot computes the corpus once and persists it.
  {
    ServeProcess seeder(args.dspaddr, serve_args(store, 0));
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      seeder.write_line(request_line(i, corpus[i]));
    }
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      ++report.attempted;
      if (strip_id(seeder.read_line(), i) != reference[i]) {
        report.fail("seed boot answer differs from the store-less engine");
      }
    }
    seeder.finish();
  }

  // The RAM tier holds a third of the corpus, so RAM hits, store hits
  // and cold computes all stay exercised.
  std::vector<double> setup;
  Boot boot = boot_sessions(args, serve_args(store, corpus.size() / 3), setup);
  const JsonValue stats = JsonValue::parse(boot.stats_line);
  const JsonValue* records = stats.find("stats")->find("store")->find("records");
  if (records == nullptr ||
      records->as_int() != static_cast<std::int64_t>(corpus.size())) {
    report.fail("the store did not recover the seeded corpus");
  }

  struct Minted {
    std::uint64_t index;
    std::string body;
    std::string line;
    bool measured;
  };
  std::vector<Minted> minted;
  std::vector<double> latencies;
  Quality quality;
  RequestStream stream(Workload::kServeHot, args.seed);
  LoopOptions options;
  options.in_flight = kCallers;
  options.warmup_s = 0.1 * args.seconds;
  options.seconds = args.seconds;
  const LoopResult loop =
      run_closed_loop(*boot.process, stream, options, [&](Answer& answer) {
        ++report.attempted;
        if (answer.request.corpus_index < 0) {
          minted.push_back({answer.index, std::move(answer.request.body),
                            std::move(answer.line), answer.measured});
        } else {
          const std::size_t i =
              static_cast<std::size_t>(answer.request.corpus_index);
          if (strip_id(answer.line, answer.index) != reference[i]) {
            report.fail("answer differs from the store-less engine");
          } else if (answer.measured) {
            quality.add(reference_view[i]);
          }
        }
        if (answer.measured) {
          latencies.push_back(answer.latency_us);
        }
      });
  boot.process->write_line("{\"stats\":true}");
  const JsonValue final_stats = JsonValue::parse(boot.process->read_line());
  const double peak_rss_mb = boot.process->finish();

  engine::Engine fresh;
  for (const Minted& m : minted) {
    const std::string expected = reference_line(fresh, m.body);
    const AnswerView view = view_answer(expected);
    const std::string problem = check_answer(view);
    if (!problem.empty()) {
      report.fail("minted kernel: " + problem);
    } else if (strip_id(m.line, m.index) != expected) {
      report.fail("minted answer differs from the store-less engine");
    } else if (m.measured) {
      quality.add(view);
    }
  }

  end_to_end_metrics(report, setup, std::move(latencies), loop, peak_rss_mb,
                     quality);
  const JsonValue& s = *final_stats.find("stats");
  const std::int64_t hits = s.find("hits")->as_int();
  const std::int64_t misses = s.find("misses")->as_int();
  const JsonValue& st = *s.find("store");
  report.note("session cache: " + std::to_string(hits) + " RAM hits, " +
              std::to_string(misses) + " misses; store " +
              std::to_string(st.find("hits")->as_int()) + " hits, " +
              std::to_string(st.find("misses")->as_int()) + " misses; " +
              std::to_string(minted.size()) + " minted kernels");
}

// --------------------------------------------------------- compile_cold

void measure_compile_cold(const Args& args, const TempDir& dir,
                          Report& report) {
  LoopOptions options;
  options.in_flight = kCallers;
  options.warmup_s = 0.1 * args.seconds;
  options.seconds = args.seconds;
  const Session session =
      run_session(args, serve_args(dir.file("cold.log"), 0), options);

  std::vector<double> latencies;
  Quality quality;
  std::uint64_t brute_forced = 0;
  for (const Answer& answer : session.answers) {
    ++report.attempted;
    if (answer.measured) {
      latencies.push_back(answer.latency_us);
    }
    const AnswerView view = view_answer(answer.line);
    std::string problem = answer_problem(answer, view);
    if (problem.empty()) {
      const engine::Request request =
          build_request(JsonValue::parse("{" + answer.request.body + "}"));
      const dspaddr::ir::AccessSequence seq = lower_request(request);
      if (seq.size() <= 10) {
        ++brute_forced;
        const int optimum = brute_force_cost(seq, request.machine);
        if (view.cost < optimum || (view.proven && view.cost != optimum)) {
          problem = "cost " + std::to_string(view.cost) +
                    (view.proven ? " (proven)" : "") +
                    " vs brute-force optimum " + std::to_string(optimum);
        }
      }
    }
    if (!problem.empty()) {
      report.fail(problem);
    } else if (answer.measured) {
      quality.add(view);
    }
  }
  end_to_end_metrics(report, session.setup, std::move(latencies),
                     session.loop, session.peak_rss_mb, quality);
  report.note("brute-force checked: " + std::to_string(brute_forced) +
              " answers with N <= 10");
}

// --------------------------------------------------------- proof_ladder

void measure_proof_ladder(const Args& args, const TempDir& dir,
                          Report& report) {
  // The heuristic cost of each rung bounds its exact answer from above.
  const std::vector<LadderRung>& rungs = ladder_rungs();
  std::vector<int> heuristic(rungs.size());
  {
    engine::Engine fresh;
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      engine::Request request = build_request(
          JsonValue::parse("{" + ladder_request_body(rungs[i], 7) + "}"));
      request.phase2.mode = dspaddr::core::Phase2Options::Mode::kHeuristic;
      request.phase2.jobs = 1;
      heuristic[i] = fresh.run(request).allocation_cost;
    }
  }

  LoopOptions options;
  options.in_flight = kCallers;
  options.seconds = args.seconds;
  const Session session =
      run_session(args, serve_args(dir.file("ladder.log"), 0), options);
  const std::vector<Answer>& answers = session.answers;

  std::vector<double> latencies;
  std::vector<double> pass_proof_s;
  std::vector<std::vector<double>> rung_ms(rungs.size());
  Quality quality;
  double proof_s = 0.0;
  for (std::size_t a = 0; a < answers.size(); ++a) {
    const Answer& answer = answers[a];
    ++report.attempted;
    latencies.push_back(answer.latency_us);
    const AnswerView view = view_answer(answer.line);
    std::string problem = answer_problem(answer, view);
    const int upper = heuristic[static_cast<std::size_t>(answer.request.rung)];
    if (problem.empty() &&
        !(view.lower_bound <= view.cost && view.cost <= upper)) {
      problem = "bound " + std::to_string(view.lower_bound) + " <= cost " +
                std::to_string(view.cost) + " <= heuristic " +
                std::to_string(upper) + " violated";
    }
    if (!problem.empty()) {
      report.fail(problem);
    } else {
      quality.add(view);
      rung_ms[static_cast<std::size_t>(answer.request.rung)].push_back(
          answer.latency_us / 1e3);
      if (view.proven) {
        proof_s += answer.latency_us / 1e6;
      }
    }
    if ((a + 1) % rungs.size() == 0) {
      pass_proof_s.push_back(proof_s);
      proof_s = 0.0;
    }
  }
  end_to_end_metrics(report, session.setup, std::move(latencies),
                     session.loop, session.peak_rss_mb, quality);
  report.note("time_to_proof_s: median " + fixed(median(pass_proof_s), 4) +
              " s to answer a pass's proven rungs (" +
              std::to_string(pass_proof_s.size()) + " passes of " +
              std::to_string(rungs.size()) + " rungs)");
  std::string per_rung = "median ms per rung:";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    per_rung += " " + rungs[i].name + " " + fixed(median(rung_ms[i]), 1);
  }
  report.note(per_rung);
}

// ---------------------------------------------------------------- trace

/// A replay session set up like the serve session of `workload`.
std::unique_ptr<Replay> make_replay(Workload workload, const std::string& store,
                                    Tracer* tracer) {
  Replay::Options options;
  options.store_path = store;
  options.jobs = bench_jobs();
  if (workload == Workload::kServeHot) {
    // The previous boot, in process.
    {
      Replay seeder(options, nullptr);
      for (std::size_t i = 0; i < hot_corpus().size(); ++i) {
        seeder.run(i, request_line(i, hot_corpus()[i]));
      }
    }
    options.cache_capacity = hot_corpus().size() / 3;
  }
  return std::make_unique<Replay>(options, tracer);
}

/// Members of an answer that do not depend on a parallel search's
/// schedule: a solve with phase2_jobs > 1 may settle on another
/// allocation of the same proven cost, so only these are compared.
std::string schedule_free_members(const std::string& line) {
  const JsonValue json = JsonValue::parse(line);
  std::string out;
  for (const char* key : {"id", "kernel", "machine", "layout", "strategy"}) {
    if (const JsonValue* value = json.find(key)) {
      out += value->dump();
    }
  }
  if (const JsonValue* lower = json.find("stages")) {
    if (const JsonValue* stage = lower->find("lower")) {
      out += stage->dump();
    }
  }
  return out;
}

/// Calls, total self time and self-time p50/p99 of every span name.
void span_metrics(Report& report, const SpanSummary& summary) {
  for (std::size_t i = 0; i < kSpanNameCount; ++i) {
    std::vector<double> self_us;
    double total_ms = 0.0;
    for (const std::int64_t ns : summary.self_ns[i]) {
      self_us.push_back(static_cast<double>(ns) / 1e3);
      total_ms += static_cast<double>(ns) / 1e6;
    }
    std::sort(self_us.begin(), self_us.end());
    const std::string name = span_name(static_cast<SpanName>(i));
    report.metric(name + ".calls", static_cast<double>(self_us.size()),
                  "count");
    report.metric(name + ".self_ms", total_ms, "ms");
    report.metric(name + ".self_p50_us",
                  self_us.empty() ? 0.0 : percentile(self_us, 50), "us");
    report.metric(name + ".self_p99_us",
                  self_us.empty() ? 0.0 : percentile(self_us, 99), "us");
  }
}

void trace_workload(const Args& args, const TempDir& dir, Report& report) {
  // A third of the run for the traced replay, as much again for the
  // same requests untraced (the overhead baseline), and the rest for the
  // reference engine.
  const double budget_s = args.seconds / 3.0;
  struct Computed {
    std::uint64_t index;
    std::string request;
    std::string answer;
    dspaddr::core::AllocationStats stats;
    int cost;
    double allocate_ms;
  };
  std::vector<Computed> computed;
  double response_bytes = 0.0;

  Tracer tracer;
  std::unique_ptr<Replay> traced =
      make_replay(args.workload, dir.file("traced.log"), &tracer);
  std::unique_ptr<Replay> untraced =
      make_replay(args.workload, dir.file("untraced.log"), nullptr);
  RequestStream stream(args.workload, args.seed);
  // Blocks of requests alternate between the two replays, and so does
  // which of them goes first, so both see the same machine conditions.
  const std::size_t block = args.workload == Workload::kProofLadder ? 1 : 64;
  std::uint64_t count = 0;
  double traced_s = 0.0;
  double untraced_s = 0.0;
  std::vector<std::string> lines;
  std::vector<ReplayStep> steps;
  for (std::uint64_t round = 0;
       count == 0 || !stream.at_pass_boundary() || traced_s < budget_s;
       ++round) {
    lines.clear();
    steps.clear();
    for (std::size_t i = 0; i < block; ++i) {
      lines.push_back(request_line(count + i, stream.next().body));
    }
    for (int pass = 0; pass < 2; ++pass) {
      const bool trace_now = (pass == 0) == (round % 2 == 0);
      const Clock::time_point start = Clock::now();
      for (std::size_t i = 0; i < block; ++i) {
        if (trace_now) {
          steps.push_back(traced->run(count + i, lines[i]));
        } else {
          untraced->run(count + i, lines[i]);
        }
      }
      (trace_now ? traced_s : untraced_s) +=
          seconds_between(start, Clock::now());
    }
    for (std::size_t i = 0; i < block; ++i) {
      response_bytes += static_cast<double>(steps[i].line.size());
      if (steps[i].tier == Tier::kCold || steps[i].tier == Tier::kPortfolio ||
          steps[i].tier == Tier::kError) {
        const engine::Result& result = steps[i].result;
        computed.push_back(
            {count + i, std::move(lines[i]), std::move(steps[i].line),
             result.stats, result.allocation_cost,
             result.stage_ms[static_cast<std::size_t>(
                 engine::Stage::kAllocate)]});
      }
    }
    count += block;
  }
  const std::uint64_t ram_hits = traced->ram_hits();
  const std::uint64_t lookups = traced->cache_lookups();
  const std::uint64_t store_hits = traced->store_hits();
  const std::uint64_t store_gets = traced->store_gets();
  const std::uint64_t launched = traced->racers_launched();
  const std::uint64_t cancelled = traced->racers_cancelled();
  traced.reset();
  untraced.reset();

  // Gate: every computed answer is sound and equals Engine::run's.
  report.attempted = count;
  engine::Engine reference(engine::Engine::Options(0));
  std::uint64_t nodes = 0, proven = 0, exact = 0, splits = 0, steals = 0;
  double allocate_s = 0.0;
  std::int64_t unproven_bound = 0, unproven_cost = 0;
  for (const Computed& c : computed) {
    const AnswerView view = view_answer(c.answer);
    std::string problem = check_answer(view);
    const JsonValue json = JsonValue::parse(c.request);
    const engine::Request request = build_request(json);
    if (problem.empty() && !engine::Portfolio::is_auto(request)) {
      const std::string expected =
          answer_line(c.index, reference.run(request));
      if (request.phase2.jobs <= 1) {
        if (expected != c.answer) {
          problem = "replayed answer differs from Engine::run";
        }
      } else if (schedule_free_members(expected) !=
                     schedule_free_members(c.answer) ||
                 (view.proven && view_answer(expected).cost != view.cost)) {
        problem = "replayed answer differs from Engine::run";
      }
    }
    if (!problem.empty()) {
      report.fail(problem);
      continue;
    }
    const dspaddr::core::AllocationStats& stats = c.stats;
    if (stats.phase2_exact) {
      ++exact;
      proven += stats.phase2_proven ? 1 : 0;
      if (!stats.phase2_proven) {
        unproven_bound += stats.phase2_lower_bound;
        unproven_cost += c.cost;
      }
    }
    if (stats.phase2_nodes > 0) {
      nodes += stats.phase2_nodes;
      allocate_s += c.allocate_ms / 1e3;
    }
    splits += stats.phase2_splits;
    steals += stats.phase2_steals;
  }

  const SpanSummary summary = summarize(tracer.spans());
  if (summary.inconsistent_requests != 0 || summary.requests != count) {
    report.fail("span self times do not add up to the request span for " +
                std::to_string(summary.inconsistent_requests) + " of " +
                std::to_string(summary.requests) + " requests");
  }
  span_metrics(report, summary);
  const auto ratio = [](double num, double den, double none) {
    return den > 0.0 ? num / den : none;
  };
  report.metric("engine.cache.hit_ratio", ratio(ram_hits, lookups, 0.0), "ratio");
  report.metric("store.hit_ratio", ratio(store_hits, store_gets, 0.0), "ratio");
  report.metric("core.phase2.nodes", static_cast<double>(nodes), "count");
  report.metric("core.phase2.nodes_per_s", ratio(nodes, allocate_s, 0.0), "1/s");
  report.metric("core.phase2.proven_ratio", ratio(proven, exact, 0.0), "ratio");
  report.metric("core.bound.lb_ratio",
                ratio(unproven_bound, unproven_cost, 1.0), "ratio");
  report.metric("runtime.steal.splits", static_cast<double>(splits), "count");
  report.metric("runtime.steal.steals", static_cast<double>(steals), "count");
  report.metric("runtime.steal.steal_rate", ratio(steals, splits, 0.0), "ratio");
  report.metric("engine.portfolio.cancel_ratio",
                ratio(cancelled, launched, 0.0), "ratio");
  report.metric("engine.serialize.bytes_per_response",
                ratio(response_bytes, static_cast<double>(count), 0.0), "bytes");
  report.metric("trace.overhead_pct", 100.0 * (traced_s - untraced_s) / untraced_s,
                "%");

  report.note("replayed " + std::to_string(count) + " requests: traced " +
              fixed(traced_s, 3) + " s, untraced " + fixed(untraced_s, 3) +
              " s; " + std::to_string(computed.size()) +
              " computed answers checked against Engine::run");
  report.note("spans: " + std::to_string(tracer.spans().size()) + " over " +
              std::to_string(summary.requests) +
              " requests; self times sum to the request span for all but " +
              std::to_string(summary.inconsistent_requests));
}

void print_result(const Report& report) {
  for (const std::string& line : report.notes) {
    std::cout << "  " << line << "\n";
  }
  if (report.failed > 0) {
    std::cout << "  FAILED: " << report.failed
              << " requests failed a check (the first are on stderr)\n";
  }
  std::ostringstream json;
  json << std::setprecision(12);
  json << "{\"correct\": "
       << (report.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    json << (i == 0 ? "" : ", ") << "\"" << m.first << "\": {\"value\": "
         << m.second.first << ", \"unit\": \"" << m.second.second << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

/// Aggregate CPU time counters of the host, from /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTimes read_cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTimes times;
  stat >> label;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8 && stat; ++field) {
    std::uint64_t value = 0;
    stat >> value;
    times.total += value;
    if (field == 7) {
      times.steal = value;
    }
  }
  return times;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (::access(args.dspaddr.c_str(), X_OK) != 0) {
    usage("no dspaddr binary at " + args.dspaddr);
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  std::cout << "perfbench " << workload_name(args.workload) << " seed "
            << args.seed << ", " << args.seconds << " s, trace "
            << (args.trace ? 1 : 0) << "\n";
  std::cout << "  host: " << available_cpus() << " cpus, serve --jobs "
            << bench_jobs() << ", proof phase2_jobs " << ladder_jobs()
            << ", build " << build_type << "\n";
  // serve_hot and compile_cold send one request at a time, so perfbench
  // and serve share one CPU: every hand-over between their threads is
  // then a switch on that CPU instead of a wake-up of another vCPU,
  // which on a shared host waits for the hypervisor and made the median
  // latency swing by a third between runs. proof_ladder's parallel
  // solves need more than one CPU.
  if (args.workload != Workload::kProofLadder) {
    const int cpu = pin_to_one_cpu();
    std::cout << "  pinned to "
              << (cpu < 0 ? std::string("no CPU (affinity refused)")
                          : "CPU " + std::to_string(cpu))
              << "\n";
  }
  if (build_type != "Release") {
    std::cout << "  WARNING: not a Release build; timings are not "
                 "comparable with the recorded baseline\n";
  }
  TempDir dir;
  Report report;
  const CpuTimes cpu_before = read_cpu_times();
  if (args.trace) {
    trace_workload(args, dir, report);
  } else if (args.workload == Workload::kServeHot) {
    measure_serve_hot(args, dir, report);
  } else if (args.workload == Workload::kCompileCold) {
    measure_compile_cold(args, dir, report);
  } else {
    measure_proof_ladder(args, dir, report);
  }
  // Time the hypervisor gave to other guests slows every timing of the
  // run; it is printed so a reader can tell a slow host from a slow
  // program.
  const CpuTimes cpu_after = read_cpu_times();
  if (cpu_after.total > cpu_before.total) {
    report.note("host cpu steal during the run: " +
                fixed(100.0 * static_cast<double>(cpu_after.steal - cpu_before.steal) /
                          static_cast<double>(cpu_after.total - cpu_before.total),
                      1) +
                "%");
  }
  print_result(report);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
