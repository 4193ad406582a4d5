#ifndef BDBMS_BIO_ALIGNMENT_H_
#define BDBMS_BIO_ALIGNMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dep/procedure.h"

namespace bdbms {

// Local sequence alignment (Smith–Waterman) standing in for BLAST-2.2.15
// in the dependency-tracking experiments: an executable, non-invertible
// procedure deriving an alignment score / E-value from two sequences
// (paper Figure 9(b), Rule 3).
struct AlignmentParams {
  int match = 2;
  int mismatch = -1;
  int gap = -2;
  // Karlin–Altschul style constants for the E-value model.
  double lambda = 0.267;
  double k = 0.041;
};

// Best local alignment score of a vs b. O(|a|*|b|) dynamic program.
int SmithWatermanScore(std::string_view a, std::string_view b,
                       const AlignmentParams& params = {});

// E-value of a local alignment score between sequences of lengths m and n:
// E = K * m * n * exp(-lambda * S).
double AlignmentEvalue(int score, size_t m, size_t n,
                       const AlignmentParams& params = {});

// Levenshtein edit distance (unit insert/delete/substitute costs) — the
// metric behind SQL DISTANCE() and the trie's ordered nearest-sequence
// traversal. O(|a|*|b|) dynamic program over one row of |b|+1 cells.
int EditDistance(std::string_view a, std::string_view b);

// The Levenshtein DP column of a growing text against a fixed target of m
// characters, as Myers/Hyyrö bit vectors (Myers, JACM 1999; Hyyrö 2003):
// cell j holds D[i][j], the edit distance between the first i text
// characters and the first j target characters, stored as the vertical
// deltas D[i][j]-D[i][j-1] in two bit vectors of ceil(m/64) words each,
// VP (+1) and VN (-1). A caller-owned column holds column_words() words,
// VP then VN; the caller tracks the text length i ("depth"), since
// D[i][0] = i. Stepping one character costs O(ceil(m/64)) word operations
// and allocates nothing. Built once per target: it holds the per-byte
// match masks.
class LevenshteinColumn {
 public:
  explicit LevenshteinColumn(std::string_view target);

  // Words in one column: VP then VN.
  size_t column_words() const { return 2 * words_; }

  // The column of the empty text: D[0][j] = j.
  void Init(uint64_t* column) const;
  // Appends text character c: `to` receives the column after c given the
  // column `from` before it. `from` and `to` may alias.
  void Step(const uint64_t* from, uint64_t* to, char c) const;
  // D[depth][m]: the edit distance of the text against the whole target.
  int Score(const uint64_t* column, int depth) const;
  // min_j D[depth][j]. Appending characters never lowers it, so it bounds
  // the distance of every extension of the text from below.
  int Min(const uint64_t* column, int depth) const;

 private:
  size_t words_;
  uint64_t last_mask_;         // the target's bits in the last word
  std::vector<uint64_t> peq_;  // 256 x words_: bit j set iff target[j]==byte
};

// Builds the ProcedureInfo registering Smith–Waterman as the executable
// "BLAST" procedure: inputs = (sequence1, sequence2), output = E-value.
ProcedureInfo MakeBlastProcedure(std::string name = "BLAST-2.2.15",
                                 AlignmentParams params = {});

// Builds a deterministic stand-in for "prediction tool P" (Figure 9(a)):
// derives a protein sequence from a gene sequence by codon translation
// over a fixed synthetic codon table.
ProcedureInfo MakePredictionToolProcedure(std::string name = "P");

// The translation used by MakePredictionToolProcedure, exposed for tests.
std::string TranslateGene(std::string_view gene_sequence);

}  // namespace bdbms

#endif  // BDBMS_BIO_ALIGNMENT_H_
