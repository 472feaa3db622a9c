// The correctness gate: what every answer must satisfy, and the
// benchmark's own brute-force optimum that compile_cold answers are
// compared against.
#pragma once

#include <cstdint>
#include <string>

#include "agu/machines.hpp"
#include "ir/access_sequence.hpp"

namespace perfbench {

/// The members of one serve answer the gate and the metrics read.
struct AnswerView {
  bool error = false;
  std::string error_message;
  int cost = 0;
  bool exact = false;
  bool proven = false;
  int lower_bound = 0;
  int gap = 0;
  bool verified = false;
  std::int64_t residual = 0;
  std::int64_t iterations = 0;
  std::int64_t extra_instructions = 0;
};

/// Parses an answer line; a line that does not parse or lacks a stage
/// reads as an error answer.
AnswerView view_answer(const std::string& line);

/// Empty when the answer is an ok, verified result whose planned
/// residual cost equals the simulated extra instructions per
/// iteration; otherwise why not.
std::string check_answer(const AnswerView& answer);

/// `line` without its leading `"id":<n>,` member; empty when the line
/// does not start with the id `index`.
std::string strip_id(const std::string& line, std::uint64_t index);

/// Minimum allocation cost of `seq` on `machine` over every assignment
/// of accesses to at most K address registers, by exhaustive
/// enumeration with the machine's free modify window and widths and
/// cyclic wrap-around. Independent of the library's allocator; meant
/// for small N (K^N assignments).
int brute_force_cost(const dspaddr::ir::AccessSequence& seq,
                     const dspaddr::agu::AguSpec& machine);

}  // namespace perfbench
