#include "bio/alignment.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

namespace bdbms {

int SmithWatermanScore(std::string_view a, std::string_view b,
                       const AlignmentParams& params) {
  if (a.empty() || b.empty()) return 0;
  std::vector<int> prev(b.size() + 1, 0), cur(b.size() + 1, 0);
  int best = 0;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = 0;
    for (size_t j = 1; j <= b.size(); ++j) {
      int diag = prev[j - 1] +
                 (a[i - 1] == b[j - 1] ? params.match : params.mismatch);
      int up = prev[j] + params.gap;
      int left = cur[j - 1] + params.gap;
      cur[j] = std::max({0, diag, up, left});
      best = std::max(best, cur[j]);
    }
    std::swap(prev, cur);
  }
  return best;
}

int EditDistance(std::string_view a, std::string_view b) {
  std::vector<int> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = static_cast<int>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    int diag = row[0];
    row[0] = static_cast<int>(i);
    for (size_t j = 1; j <= b.size(); ++j) {
      int sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({sub, row[j] + 1, row[j - 1] + 1});
    }
  }
  return row[b.size()];
}

LevenshteinColumn::LevenshteinColumn(std::string_view target)
    : words_((target.size() + 63) / 64),
      last_mask_(target.size() % 64 == 0
                     ? ~uint64_t{0}
                     : (uint64_t{1} << (target.size() % 64)) - 1),
      peq_(256 * words_, 0) {
  for (size_t j = 0; j < target.size(); ++j) {
    peq_[static_cast<unsigned char>(target[j]) * words_ + j / 64] |=
        uint64_t{1} << (j % 64);
  }
}

void LevenshteinColumn::Init(uint64_t* column) const {
  for (size_t w = 0; w < words_; ++w) {
    column[w] = w + 1 == words_ ? last_mask_ : ~uint64_t{0};
    column[words_ + w] = 0;
  }
}

void LevenshteinColumn::Step(const uint64_t* from, uint64_t* to,
                             char c) const {
  const uint64_t* eq_of_c =
      peq_.data() + static_cast<unsigned char>(c) * words_;
  // The column is one (64 * words_)-bit integer; three bits cross each
  // word boundary: the carry of the addition below and the bits HP and
  // HN shift out. Row 0 shifts in HP = 1, since D[i][0] - D[i-1][0] = +1.
  uint64_t carry = 0;
  uint64_t hp_in = 1;
  uint64_t hn_in = 0;
  for (size_t w = 0; w < words_; ++w) {
    uint64_t vp = from[w];
    uint64_t vn = from[words_ + w];
    uint64_t eq = eq_of_c[w];
    uint64_t xv = eq | vn;
    uint64_t masked = eq & vp;
    uint64_t sum = masked + vp;
    uint64_t sum_carry = sum < masked ? 1 : 0;
    sum += carry;
    carry = sum_carry | (sum < carry ? 1 : 0);
    uint64_t xh = (sum ^ vp) | eq;
    uint64_t hp = vn | ~(xh | vp);
    uint64_t hn = vp & xh;
    uint64_t hp_out = hp >> 63;
    uint64_t hn_out = hn >> 63;
    hp = (hp << 1) | hp_in;
    hn = (hn << 1) | hn_in;
    hp_in = hp_out;
    hn_in = hn_out;
    to[w] = hn | ~(xv | hp);
    to[words_ + w] = hp & xv;
  }
}

int LevenshteinColumn::Score(const uint64_t* column, int depth) const {
  int score = depth;
  for (size_t w = 0; w < words_; ++w) {
    uint64_t mask = w + 1 == words_ ? last_mask_ : ~uint64_t{0};
    score += std::popcount(column[w] & mask) -
             std::popcount(column[words_ + w] & mask);
  }
  return score;
}

int LevenshteinColumn::Min(const uint64_t* column, int depth) const {
  // D[depth][j] = depth + (the sum of the first j deltas). A prefix sum
  // reaches a new low only at a -1 delta, so only VN's bits are visited.
  int sum = 0;
  int low = 0;
  for (size_t w = 0; w < words_; ++w) {
    uint64_t mask = w + 1 == words_ ? last_mask_ : ~uint64_t{0};
    uint64_t vp = column[w] & mask;
    uint64_t vn = column[words_ + w] & mask;
    for (uint64_t bits = vn; bits != 0; bits &= bits - 1) {
      uint64_t upto = ~uint64_t{0} >> (63 - std::countr_zero(bits));
      low = std::min(low, sum + std::popcount(vp & upto) -
                              std::popcount(vn & upto));
    }
    sum += std::popcount(vp) - std::popcount(vn);
  }
  return depth + low;
}

double AlignmentEvalue(int score, size_t m, size_t n,
                       const AlignmentParams& params) {
  return params.k * static_cast<double>(m) * static_cast<double>(n) *
         std::exp(-params.lambda * score);
}

ProcedureInfo MakeBlastProcedure(std::string name, AlignmentParams params) {
  ProcedureInfo info;
  info.name = std::move(name);
  info.executable = true;
  info.invertible = false;
  info.fn = [params](const std::vector<Value>& in) -> Result<Value> {
    if (in.size() != 2 || !in[0].is_string() || !in[1].is_string()) {
      return Status::InvalidArgument(
          "BLAST procedure expects two sequence inputs");
    }
    const std::string& a = in[0].as_string();
    const std::string& b = in[1].as_string();
    int score = SmithWatermanScore(a, b, params);
    return Value::Double(AlignmentEvalue(score, a.size(), b.size(), params));
  };
  return info;
}

std::string TranslateGene(std::string_view gene_sequence) {
  // Synthetic codon table: each DNA triplet maps deterministically onto
  // one of 20 amino acids (a stand-in, not the real genetic code).
  static constexpr char kAmino[] = "ACDEFGHIKLMNPQRSTVWY";
  auto base = [](char c) -> int {
    switch (c) {
      case 'A': return 0;
      case 'C': return 1;
      case 'G': return 2;
      case 'T': return 3;
      default: return 0;
    }
  };
  std::string protein;
  protein.reserve(gene_sequence.size() / 3 + 1);
  for (size_t i = 0; i + 2 < gene_sequence.size(); i += 3) {
    int codon = base(gene_sequence[i]) * 16 + base(gene_sequence[i + 1]) * 4 +
                base(gene_sequence[i + 2]);
    protein.push_back(kAmino[codon % 20]);
  }
  if (protein.empty()) protein.push_back('M');
  return protein;
}

ProcedureInfo MakePredictionToolProcedure(std::string name) {
  ProcedureInfo info;
  info.name = std::move(name);
  info.executable = true;
  info.invertible = false;
  info.fn = [](const std::vector<Value>& in) -> Result<Value> {
    if (in.size() != 1 || !in[0].is_string()) {
      return Status::InvalidArgument(
          "prediction tool expects one gene sequence");
    }
    return Value::Sequence(TranslateGene(in[0].as_string()));
  };
  return info;
}

}  // namespace bdbms
