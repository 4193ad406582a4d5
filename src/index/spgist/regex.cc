#include "index/spgist/regex.h"

#include <algorithm>
#include <bitset>

namespace bdbms {

namespace {

struct Atom {
  std::bitset<256> chars;  // bytes the atom consumes
  bool repeat = false;     // may repeat (from * and +)
  bool optional = false;   // may be skipped (from * and ?)
};

void SetBit(std::vector<uint64_t>* words, size_t bit) {
  (*words)[bit / 64] |= uint64_t{1} << (bit % 64);
}

}  // namespace

Result<RegexProgram> RegexProgram::Compile(std::string_view pattern) {
  if (pattern.empty()) {
    return Status::InvalidArgument("regex: empty pattern");
  }
  std::vector<Atom> atoms;
  size_t i = 0;
  while (i < pattern.size()) {
    Atom atom;
    char c = pattern[i];
    if (c == '*' || c == '+' || c == '?') {
      return Status::InvalidArgument("regex: dangling quantifier");
    }
    if (c == '.') {
      atom.chars.set();
      ++i;
    } else if (c == '[') {
      size_t close = pattern.find(']', i + 1);
      if (close == std::string_view::npos) {
        return Status::InvalidArgument("regex: unterminated character class");
      }
      if (close == i + 1) {
        return Status::InvalidArgument("regex: empty character class");
      }
      for (size_t k = i + 1; k < close; ++k) {
        atom.chars.set(static_cast<unsigned char>(pattern[k]));
      }
      i = close + 1;
    } else if (c == '\\') {
      if (i + 1 >= pattern.size()) {
        return Status::InvalidArgument("regex: trailing backslash");
      }
      atom.chars.set(static_cast<unsigned char>(pattern[i + 1]));
      i += 2;
    } else {
      atom.chars.set(static_cast<unsigned char>(c));
      ++i;
    }
    if (i < pattern.size()) {
      if (pattern[i] == '*') {
        atom.repeat = true;
        atom.optional = true;
        ++i;
      } else if (pattern[i] == '+') {
        atom.repeat = true;  // at least once, then repeats
        ++i;
      } else if (pattern[i] == '?') {
        atom.optional = true;
        ++i;
      }
    }
    atoms.push_back(atom);
  }

  RegexProgram prog;
  prog.atoms_ = atoms.size();
  prog.words_ = atoms.size() / 64 + 1;  // states 0..n
  const size_t w = prog.words_;
  prog.char_masks_.assign(256 * w, 0);
  prog.repeat_.assign(w, 0);
  prog.block_first_.assign(w, 0);
  prog.block_last_.assign(w, 0);
  prog.block_reach_.assign(w, 0);
  for (size_t a = 0; a < atoms.size(); ++a) {
    for (size_t ch = 0; ch < 256; ++ch) {
      if (atoms[a].chars.test(ch)) {
        prog.char_masks_[ch * w + a / 64] |= uint64_t{1} << (a % 64);
      }
    }
    if (atoms[a].repeat) SetBit(&prog.repeat_, a);
  }
  for (size_t a = 0; a < atoms.size();) {
    if (!atoms[a].optional) {
      ++a;
      continue;
    }
    size_t last = a;  // the run of optional atoms is a..last
    while (last + 1 < atoms.size() && atoms[last + 1].optional) ++last;
    SetBit(&prog.block_first_, a);
    SetBit(&prog.block_last_, last + 1);
    for (size_t s = a + 1; s <= last + 1; ++s) SetBit(&prog.block_reach_, s);
    a = last + 1;
  }
  prog.start_.assign(w, 0);
  prog.start_[0] = 1;
  prog.Close(prog.start_);
  return prog;
}

bool RegexProgram::Close(std::span<uint64_t> states) const {
  // For each block: fill every state above the block's lowest live
  // state. Setting the block's last bit and subtracting its first bit
  // borrows up to that lowest live state and no further; ~diff ^ d then
  // marks exactly the block's states above it (Navarro & Raffinot,
  // "Flexible Pattern Matching in Strings", §4.3). The last bit stops
  // every borrow inside its block, so blocks never disturb one another.
  uint64_t borrow = 0;
  uint64_t live = 0;
  for (size_t w = 0; w < words_; ++w) {
    const uint64_t d = states[w] | block_last_[w];
    const uint64_t t = d - block_first_[w];
    const uint64_t diff = t - borrow;
    borrow = (d < block_first_[w]) | (t < borrow);
    states[w] |= block_reach_[w] & (~diff ^ d);
    live |= states[w];
  }
  return live != 0;
}

bool RegexProgram::Advance(std::span<const uint64_t> in, char c,
                           std::span<uint64_t> out) const {
  const uint64_t* match =
      &char_masks_[static_cast<unsigned char>(c) * words_];
  uint64_t carry = 0;
  for (size_t w = 0; w < words_; ++w) {
    const uint64_t m = in[w] & match[w];
    out[w] = (m << 1) | carry | (m & repeat_[w]);
    carry = m >> 63;
  }
  return Close(out);
}

bool RegexProgram::Accepting(std::span<const uint64_t> states) const {
  return (states[atoms_ / 64] >> (atoms_ % 64)) & 1;
}

bool RegexProgram::MatchesFrom(std::span<const uint64_t> states,
                               std::string_view rest) const {
  // Patterns up to 255 atoms step in a stack buffer; longer ones take
  // one heap buffer per call, never one per character.
  constexpr size_t kInlineWords = 4;
  uint64_t inline_buf[kInlineWords] = {};
  std::vector<uint64_t> heap_buf;
  std::span<uint64_t> cur(inline_buf, std::min(words_, kInlineWords));
  if (words_ > kInlineWords) {
    heap_buf.resize(words_);
    cur = heap_buf;
  }
  std::copy(states.begin(), states.end(), cur.begin());
  for (char c : rest) {
    if (!Advance(cur, c, cur)) return false;
  }
  return Accepting(cur);
}

}  // namespace bdbms
