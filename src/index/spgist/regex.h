#ifndef BDBMS_INDEX_SPGIST_REGEX_H_
#define BDBMS_INDEX_SPGIST_REGEX_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace bdbms {

// Small NFA-based regular-expression engine used by the SP-GiST trie's
// regular-expression match search (paper §7.1). Supported syntax:
//   literal characters,  .  (any char),  [abc] character classes,
//   X* (zero or more of the preceding atom), X+ and X? sugar.
// The engine exposes its state sets so the trie can advance the NFA edge
// by edge while descending and prune subtrees whose state set goes dead.
//
// The NFA runs bit-parallel (Shift-And): a state set is a bit mask of
// words() 64-bit words, where bit i means "the first i atoms consumed"
// and bit n, for an n-atom pattern, accepts. A step shifts the states
// whose atom matches the character, keeps the repeating ones, and closes
// the result over runs of skippable atoms with one carry-propagating
// subtraction, so it costs O(words) and allocates nothing.
class RegexProgram {
 public:
  static Result<RegexProgram> Compile(std::string_view pattern);

  // Length of every state set, in 64-bit words.
  size_t words() const { return words_; }

  // State set at the start of matching (epsilon-closed).
  std::span<const uint64_t> Start() const { return start_; }

  // Advances every state in `in` over character `c` (epsilon-closed) into
  // `out`, which may alias `in`. Returns false when `out` is empty: no
  // continuation can ever match.
  bool Advance(std::span<const uint64_t> in, char c,
               std::span<uint64_t> out) const;

  // True if the set holds the accepting state (the input consumed so far
  // is a full match).
  bool Accepting(std::span<const uint64_t> states) const;

  // Does `rest` carry the state set `states` to acceptance?
  bool MatchesFrom(std::span<const uint64_t> states,
                   std::string_view rest) const;

  // Convenience: does the entire `text` match?
  bool FullMatch(std::string_view text) const {
    return MatchesFrom(start_, text);
  }

 private:
  RegexProgram() = default;  // only Compile builds programs

  // Epsilon closure in place over runs of optional atoms; returns whether
  // any state is live.
  bool Close(std::span<uint64_t> states) const;

  size_t atoms_ = 0;
  size_t words_ = 1;
  // 256 rows of words_: bit i of row c set iff atom i matches byte c.
  std::vector<uint64_t> char_masks_;
  // Atoms that may repeat (from * and +).
  std::vector<uint64_t> repeat_;
  // One block per maximal run of optional atoms i..j, spanning states
  // i..j+1: its first state, its last state, and the states the run's
  // epsilon edges reach (i+1..j+1).
  std::vector<uint64_t> block_first_;
  std::vector<uint64_t> block_last_;
  std::vector<uint64_t> block_reach_;
  std::vector<uint64_t> start_;
};

}  // namespace bdbms

#endif  // BDBMS_INDEX_SPGIST_REGEX_H_
