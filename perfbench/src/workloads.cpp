#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>

#include "cli/kernel_io.hpp"
#include "eval/patterns.hpp"
#include "ir/kernels.hpp"
#include "support/json.hpp"

namespace perfbench {
namespace {

using dspaddr::support::JsonValue;

/// Machines of compile_cold: catalog entries with pairwise different
/// resources (the engine keys results on resources, not on names), two
/// of them with modify registers that give the planner work.
constexpr const char* kColdMachines[] = {"wide4", "minimal2", "tms320c25",
                                         "adsp218x"};

/// Workload files of compile_cold's kernel_file requests.
constexpr const char* kColdFiles[] = {
    "workloads/fir16.kern",         "workloads/fir64_unroll4.kern",
    "workloads/gradient.c",         "workloads/paper_example.c",
    "workloads/smooth3.c",          "workloads/stencil3x3_unroll8.kern",
    "workloads/stereo_mix.kern"};

constexpr dspaddr::eval::PatternFamily kFamilies[] = {
    dspaddr::eval::PatternFamily::kUniform,
    dspaddr::eval::PatternFamily::kClustered,
    dspaddr::eval::PatternFamily::kStrided,
    dspaddr::eval::PatternFamily::kSortedNoise,
    dspaddr::eval::PatternFamily::kSkewedStrided};

/// The members of an object, without the enclosing braces.
std::string members_of(const JsonValue& object) {
  const std::string text = object.dump();
  return text.substr(1, text.size() - 2);
}

JsonValue number(std::int64_t value) { return JsonValue::number(value); }

/// An inline kernel over one array holding the accesses of `seq`,
/// shifted so the smallest offset is 0 (the cost only depends on
/// distances, so the shift changes nothing but keeps indices valid).
JsonValue sequence_kernel(const dspaddr::ir::AccessSequence& seq,
                          const std::string& name, std::int64_t iterations) {
  std::int64_t lo = seq[0].offset;
  std::int64_t hi = seq[0].offset;
  for (const dspaddr::ir::Access& access : seq.accesses()) {
    lo = std::min(lo, access.offset);
    hi = std::max(hi, access.offset);
  }
  JsonValue kernel = JsonValue::object();
  if (!name.empty()) {
    kernel.set("name", JsonValue::string(name));
  }
  JsonValue array = JsonValue::object();
  array.set("name", JsonValue::string("A"));
  array.set("size", number(hi - lo + 1));
  JsonValue arrays = JsonValue::array();
  arrays.push_back(std::move(array));
  kernel.set("arrays", std::move(arrays));
  kernel.set("iterations", number(iterations));
  JsonValue accesses = JsonValue::array();
  for (const dspaddr::ir::Access& access : seq.accesses()) {
    JsonValue entry = JsonValue::object();
    entry.set("array", JsonValue::string("A"));
    entry.set("offset", number(access.offset - lo));
    entry.set("stride", number(access.stride));
    accesses.push_back(std::move(entry));
  }
  kernel.set("accesses", std::move(accesses));
  return kernel;
}

/// An inline kernel holding the first `prefix` accesses of `kernel`.
JsonValue kernel_prefix(const dspaddr::ir::Kernel& kernel,
                        const std::string& name, std::size_t prefix) {
  JsonValue json = JsonValue::object();
  json.set("name", JsonValue::string(name));
  JsonValue arrays = JsonValue::array();
  for (const dspaddr::ir::ArrayDecl& decl : kernel.arrays()) {
    JsonValue array = JsonValue::object();
    array.set("name", JsonValue::string(decl.name));
    array.set("size", number(decl.size));
    arrays.push_back(std::move(array));
  }
  json.set("arrays", std::move(arrays));
  json.set("iterations", number(kernel.iterations()));
  json.set("data_ops", number(kernel.data_ops()));
  JsonValue accesses = JsonValue::array();
  for (std::size_t i = 0; i < prefix && i < kernel.accesses().size(); ++i) {
    const dspaddr::ir::KernelAccess& access = kernel.accesses()[i];
    JsonValue entry = JsonValue::object();
    entry.set("array", JsonValue::string(access.array));
    entry.set("offset", number(access.offset));
    entry.set("stride", number(access.stride));
    if (access.is_write) {
      entry.set("write", JsonValue::boolean(true));
    }
    accesses.push_back(std::move(entry));
  }
  json.set("accesses", std::move(accesses));
  return json;
}

/// Machine members shared by every proof_ladder rung: the K = 3, M = 1
/// setting of the exact-solver scaling studies.
JsonValue ladder_request(JsonValue kernel) {
  JsonValue request = JsonValue::object();
  request.set("kernel", std::move(kernel));
  request.set("machine", JsonValue::string("wide4"));
  request.set("registers", number(3));
  request.set("modify_range", number(1));
  return request;
}

std::vector<LadderRung> build_ladder() {
  std::vector<LadderRung> rungs;
  const dspaddr::ir::Kernel stencil =
      dspaddr::cli::load_kernel_file("workloads/stencil3x3_unroll8.kern");
  // Stencil prefixes prove in 1k..330k nodes; the full 80-access
  // stencil exhausts the 2M-node budget with a gap. N 24 spends most of
  // its time in phase 1, which exhausts its own search budget.
  for (const std::size_t n : {24, 32, 40, 44, 48, 52, 56}) {
    const std::string name = "stencil_n" + std::to_string(n);
    rungs.push_back(
        {name, members_of(ladder_request(kernel_prefix(stencil, name, n)))});
  }
  // Deep, unbalanced search trees (the work-stealing workload), from
  // fixed draws so every pass and every seed solves the same trees; N 28
  // is another phase-1-bound instance.
  for (const std::size_t n : {28, 46, 50, 54}) {
    dspaddr::support::Rng rng(0x57EA1 ^ (n * 7919));
    dspaddr::eval::PatternSpec spec;
    spec.accesses = n;
    spec.offset_range = 8;
    spec.family = dspaddr::eval::PatternFamily::kSkewedStrided;
    const std::string name = "skewed_n" + std::to_string(n);
    rungs.push_back({name, members_of(ladder_request(sequence_kernel(
                               dspaddr::eval::generate_pattern(spec, rng),
                               name, 8)))});
  }
  const dspaddr::ir::Kernel fir =
      dspaddr::cli::load_kernel_file("workloads/fir64_unroll4.kern");
  rungs.push_back({"fir64_unroll4",
                   members_of(ladder_request(kernel_prefix(
                       fir, "fir64_unroll4", fir.accesses().size())))});
  rungs.push_back({"stencil_n80",
                   members_of(ladder_request(kernel_prefix(
                       stencil, "stencil_n80", stencil.accesses().size())))});
  return rungs;
}

}  // namespace

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kServeHot:
      return "serve_hot";
    case Workload::kCompileCold:
      return "compile_cold";
    case Workload::kProofLadder:
      return "proof_ladder";
  }
  return "unknown";
}

bool parse_workload(const std::string& name, Workload& out) {
  for (const Workload workload : {Workload::kServeHot, Workload::kCompileCold,
                                  Workload::kProofLadder}) {
    if (name == workload_name(workload)) {
      out = workload;
      return true;
    }
  }
  return false;
}

std::size_t available_cpus() {
  static const std::size_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) {
      return std::size_t{1};
    }
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }();
  return cpus;
}

int pin_to_one_cpu() {
  available_cpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return -1;
  }
  // The highest-numbered CPU: CPU 0 takes most of the interrupts.
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &set)) {
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
    }
  }
  return -1;
}

std::size_t bench_jobs() { return std::min<std::size_t>(4, available_cpus()); }

std::size_t ladder_jobs() { return std::min<std::size_t>(2, available_cpus()); }

const std::vector<std::string>& hot_corpus() {
  static const std::vector<std::string> corpus = [] {
    std::vector<std::string> bodies;
    for (const std::string& name : dspaddr::ir::builtin_kernel_names()) {
      for (int registers = 1; registers <= 4; ++registers) {
        for (int modify_range = 0; modify_range <= 2; ++modify_range) {
          JsonValue request = JsonValue::object();
          request.set("builtin", JsonValue::string(name));
          request.set("machine", JsonValue::string("wide4"));
          request.set("registers", number(registers));
          request.set("modify_range", number(modify_range));
          request.set("iterations", number(64));
          bodies.push_back(members_of(request));
        }
      }
    }
    return bodies;
  }();
  return corpus;
}

const std::vector<LadderRung>& ladder_rungs() {
  static const std::vector<LadderRung> rungs = build_ladder();
  return rungs;
}

std::string ladder_request_body(const LadderRung& rung,
                                std::uint64_t iterations) {
  JsonValue extra = JsonValue::object();
  extra.set("iterations", number(static_cast<std::int64_t>(iterations)));
  extra.set("phase2", JsonValue::string("exact"));
  extra.set("phase2_jobs", number(static_cast<std::int64_t>(ladder_jobs())));
  return rung.body + "," + members_of(extra);
}

RequestStream::RequestStream(Workload workload, std::uint64_t seed)
    : workload_(workload),
      seed_(seed),
      rng_(seed * 0x9E3779B97F4A7C15ULL + static_cast<int>(workload)) {}

BenchRequest RequestStream::next() {
  switch (workload_) {
    case Workload::kServeHot:
      return next_hot();
    case Workload::kCompileCold:
      return next_cold();
    case Workload::kProofLadder:
      return next_ladder();
  }
  return {};
}

bool RequestStream::at_pass_boundary() const {
  return workload_ != Workload::kProofLadder || pass_order_.empty() ||
         pass_position_ == pass_order_.size();
}

BenchRequest RequestStream::next_hot() {
  BenchRequest request;
  // 1% of the traffic is a kernel nobody asked for before: a small
  // synthetic loop whose base offset encodes the serial number.
  if (rng_.index(100) != 0) {
    request.corpus_index = static_cast<int>(rng_.index(hot_corpus().size()));
    request.body = hot_corpus()[static_cast<std::size_t>(request.corpus_index)];
    return request;
  }
  const std::uint64_t serial = serial_++;
  const std::int64_t span = (1 << 20) - 64;
  const std::int64_t base = static_cast<std::int64_t>(
      (seed_ * 7919 + serial * 8) % static_cast<std::uint64_t>(span));
  const std::int64_t step = static_cast<std::int64_t>(serial % 7) + 1;
  JsonValue kernel = JsonValue::object();
  kernel.set("name", JsonValue::string("cold_" + std::to_string(serial)));
  JsonValue array = JsonValue::object();
  array.set("name", JsonValue::string("A"));
  array.set("size", number(1 << 20));
  JsonValue arrays = JsonValue::array();
  arrays.push_back(std::move(array));
  kernel.set("arrays", std::move(arrays));
  kernel.set("iterations", number(16));
  JsonValue accesses = JsonValue::array();
  for (int j = 0; j < 6; ++j) {
    JsonValue access = JsonValue::object();
    access.set("array", JsonValue::string("A"));
    access.set("offset", number(base + j * step));
    if (j == 5) {
      access.set("write", JsonValue::boolean(true));
    }
    accesses.push_back(std::move(access));
  }
  kernel.set("accesses", std::move(accesses));
  JsonValue body = JsonValue::object();
  body.set("kernel", std::move(kernel));
  body.set("machine", JsonValue::string("wide4"));
  body.set("iterations", number(16));
  request.body = members_of(body);
  return request;
}

BenchRequest RequestStream::next_cold() {
  for (;;) {
    // 1 in 10 races the allocators ("strategy":"auto"), 3 in 20 compile
    // a workload file, the rest compile a random access pattern.
    const std::size_t draw = rng_.index(20);
    const char* machine = kColdMachines[rng_.index(std::size(kColdMachines))];
    const std::int64_t registers = rng_.uniform_int(2, 4);
    JsonValue body = JsonValue::object();
    if (draw >= 2 && draw < 5) {
      body.set("kernel_file",
               JsonValue::string(kColdFiles[rng_.index(std::size(kColdFiles))]));
      body.set("iterations", number(rng_.uniform_int(8, 71)));
    } else {
      dspaddr::eval::PatternSpec spec;
      spec.accesses = static_cast<std::size_t>(rng_.uniform_int(8, 16));
      spec.offset_range = rng_.uniform_int(4, 12);
      spec.family = kFamilies[rng_.index(std::size(kFamilies))];
      body.set("kernel", sequence_kernel(
                             dspaddr::eval::generate_pattern(spec, rng_),
                             "pattern_" + std::to_string(serial_), 16));
    }
    body.set("machine", JsonValue::string(machine));
    body.set("registers", number(registers));
    // Every request must miss the cache: the key leaves out what the
    // engine's fingerprint ignores (the kernel name) and the strategy,
    // whose race also computes the default allocator's answer.
    JsonValue key = body;
    if (const JsonValue* kernel = body.find("kernel")) {
      JsonValue unnamed = JsonValue::object();
      for (const JsonValue::Member& field : kernel->members()) {
        if (field.first != "name") {
          unnamed.set(field.first, field.second);
        }
      }
      key.set("kernel", std::move(unnamed));
    }
    if (!seen_.insert(std::hash<std::string>{}(key.dump())).second) {
      continue;
    }
    ++serial_;
    if (draw < 2) {
      body.set("strategy", JsonValue::string("auto"));
    }
    BenchRequest request;
    request.body = members_of(body);
    return request;
  }
}

BenchRequest RequestStream::next_ladder() {
  if (at_pass_boundary()) {
    pass_order_.resize(ladder_rungs().size());
    for (std::size_t i = 0; i < pass_order_.size(); ++i) {
      pass_order_[i] = static_cast<int>(i);
    }
    rng_.shuffle(pass_order_);
    pass_position_ = 0;
    ++pass_;
  }
  BenchRequest request;
  request.rung = pass_order_[pass_position_++];
  // A fresh simulated iteration count per pass gives every pass its own
  // fingerprints, so no pass is answered from the cache or the store.
  request.body = ladder_request_body(
      ladder_rungs()[static_cast<std::size_t>(request.rung)],
      7 + (seed_ % 8) + pass_);
  return request;
}

}  // namespace perfbench
