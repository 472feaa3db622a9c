#include "checks.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "support/json.hpp"

namespace perfbench {
namespace {

using dspaddr::support::JsonValue;

const JsonValue* path(const JsonValue& root,
                      std::initializer_list<const char*> keys) {
  const JsonValue* node = &root;
  for (const char* key : keys) {
    if (node == nullptr || !node->is_object()) {
      return nullptr;
    }
    node = node->find(key);
  }
  return node;
}

/// The exhaustive search of brute_force_cost: assigns accesses in order,
/// opening registers in canonical order so each partition of the
/// accesses is visited once.
class BruteForce {
 public:
  BruteForce(const dspaddr::ir::AccessSequence& seq,
             const dspaddr::agu::AguSpec& machine)
      : seq_(seq),
        lo_(machine.modify_lo),
        hi_(machine.modify_hi),
        widths_(machine.free_widths),
        registers_(machine.address_registers()),
        first_(registers_),
        last_(registers_) {}

  int run() {
    visit(0, 0, 0);
    return best_;
  }

 private:
  bool free_move(std::optional<std::int64_t> distance) const {
    if (!distance.has_value()) {
      return false;
    }
    return (lo_ <= *distance && *distance <= hi_) ||
           std::find(widths_.begin(), widths_.end(), *distance) !=
               widths_.end();
  }

  /// Cost of `to` following `from` in one register within an iteration.
  int intra(std::size_t from, std::size_t to) const {
    const dspaddr::ir::Access& a = seq_[from];
    const dspaddr::ir::Access& b = seq_[to];
    return free_move(a.stride == b.stride
                         ? std::optional<std::int64_t>(b.offset - a.offset)
                         : std::nullopt)
               ? 0
               : 1;
  }

  /// Cost of a register's first access in iteration t+1 following its
  /// last access in iteration t.
  int wrap(std::size_t last, std::size_t first) const {
    const dspaddr::ir::Access& a = seq_[last];
    const dspaddr::ir::Access& b = seq_[first];
    return free_move(a.stride == b.stride
                         ? std::optional<std::int64_t>(b.offset + b.stride -
                                                       a.offset)
                         : std::nullopt)
               ? 0
               : 1;
  }

  void visit(std::size_t access, std::size_t used, int cost) {
    if (cost >= best_) {
      return;
    }
    if (access == seq_.size()) {
      for (std::size_t r = 0; r < used; ++r) {
        cost += wrap(last_[r], first_[r]);
      }
      best_ = std::min(best_, cost);
      return;
    }
    for (std::size_t r = 0; r < used; ++r) {
      const std::size_t previous = last_[r];
      last_[r] = access;
      visit(access + 1, used, cost + intra(previous, access));
      last_[r] = previous;
    }
    if (used < registers_) {
      first_[used] = access;
      last_[used] = access;
      visit(access + 1, used + 1, cost);
    }
  }

  const dspaddr::ir::AccessSequence& seq_;
  std::int64_t lo_;
  std::int64_t hi_;
  std::vector<std::int64_t> widths_;
  std::size_t registers_;
  std::vector<std::size_t> first_;
  std::vector<std::size_t> last_;
  int best_ = std::numeric_limits<int>::max();
};

}  // namespace

AnswerView view_answer(const std::string& line) {
  AnswerView view;
  JsonValue json;
  try {
    json = JsonValue::parse(line);
  } catch (const std::exception& e) {
    view.error = true;
    view.error_message = std::string("unparsable answer: ") + e.what();
    return view;
  }
  if (const JsonValue* error = path(json, {"error", "message"})) {
    view.error = true;
    view.error_message = error->is_string() ? error->as_string() : "error";
    return view;
  }
  const JsonValue* cost = path(json, {"stages", "allocate", "cost"});
  const JsonValue* phase2 = path(json, {"stages", "allocate", "phase2"});
  const JsonValue* residual = path(json, {"stages", "plan", "residual_cost"});
  const JsonValue* simulate = path(json, {"stages", "simulate"});
  if (cost == nullptr || phase2 == nullptr || residual == nullptr ||
      simulate == nullptr) {
    view.error = true;
    view.error_message = "answer lacks a pipeline stage";
    return view;
  }
  view.cost = static_cast<int>(cost->as_int());
  view.exact = phase2->find("exact")->as_bool();
  view.proven = phase2->find("proven")->as_bool();
  view.lower_bound = static_cast<int>(phase2->find("lower_bound")->as_int());
  view.gap = static_cast<int>(phase2->find("gap")->as_int());
  view.residual = residual->as_int();
  view.verified = simulate->find("verified")->as_bool();
  view.iterations = simulate->find("iterations")->as_int();
  view.extra_instructions = simulate->find("extra_instructions")->as_int();
  return view;
}

std::string check_answer(const AnswerView& answer) {
  if (answer.error) {
    return "error answer: " + answer.error_message;
  }
  if (!answer.verified) {
    return "simulation not verified";
  }
  if (answer.residual * answer.iterations != answer.extra_instructions) {
    return "planned residual " + std::to_string(answer.residual) + " x " +
           std::to_string(answer.iterations) +
           " iterations != simulated extra instructions " +
           std::to_string(answer.extra_instructions);
  }
  return "";
}

std::string strip_id(const std::string& line, std::uint64_t index) {
  const std::string prefix = "{\"id\":" + std::to_string(index) + ",";
  if (line.compare(0, prefix.size(), prefix) != 0) {
    return "";
  }
  return "{" + line.substr(prefix.size());
}

int brute_force_cost(const dspaddr::ir::AccessSequence& seq,
                     const dspaddr::agu::AguSpec& machine) {
  return BruteForce(seq, machine).run();
}

}  // namespace perfbench
