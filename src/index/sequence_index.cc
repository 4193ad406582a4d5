#include "index/sequence_index.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <set>

namespace bdbms {

Result<std::unique_ptr<SequenceIndex>> SequenceIndex::Create(std::string name,
                                                             size_t column) {
  BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<SpGistTrie> trie,
                         SpGistTrie::Create(TrieOps::Config{}));
  return std::unique_ptr<SequenceIndex>(
      new SequenceIndex(std::move(name), column, std::move(trie)));
}

Status SequenceIndex::Insert(const Value& cell, RowId row_id) {
  if (cell.is_null()) {
    std::lock_guard lock(latch_);
    ++null_rows_[row_id];
    return Status::Ok();
  }
  if (!cell.is_string()) {
    return Status::InvalidArgument("sequence index over a non-string value");
  }
  const std::string& text = cell.as_string();
  if (text.find('\0') != std::string::npos) {
    return Status::InvalidArgument(
        "sequence index cannot store values with embedded NUL bytes");
  }
  std::lock_guard lock(latch_);
  return trie_->Insert(text, row_id);
}

Status SequenceIndex::Remove(const Value& cell, RowId row_id) {
  if (cell.is_null()) {
    std::lock_guard lock(latch_);
    auto it = null_rows_.find(row_id);
    if (it == null_rows_.end()) {
      return Status::NotFound("sequence index entry not found");
    }
    if (--it->second == 0) null_rows_.erase(it);
    return Status::Ok();
  }
  if (!cell.is_string()) {
    return Status::InvalidArgument("sequence index over a non-string value");
  }
  std::lock_guard lock(latch_);
  BDBMS_ASSIGN_OR_RETURN(
      bool removed,
      trie_->Remove(TrieOps::Exact(cell.as_string()), row_id));
  if (!removed) {
    return Status::NotFound("sequence index entry not found");
  }
  return Status::Ok();
}

Result<std::vector<RowId>> SequenceIndex::Collect(
    const TrieOps::Query& query) const {
  std::shared_lock lock(latch_);
  std::vector<RowId> rows;
  BDBMS_RETURN_IF_ERROR(
      trie_->Search(query, [&](const TrieOps::Key&, uint64_t row) {
        rows.push_back(row);
        return true;
      }));
  std::sort(rows.begin(), rows.end());
  return rows;
}

Result<std::vector<RowId>> SequenceIndex::FindPrefix(
    const std::string& prefix) const {
  return Collect(TrieOps::Prefix(prefix));
}

Result<std::vector<RowId>> SequenceIndex::FindExact(
    const std::string& text) const {
  return Collect(TrieOps::Exact(text));
}

Result<std::vector<RowId>> SequenceIndex::FindRegex(
    const RegexProgram& program) const {
  return Collect(TrieOps::Regex(&program));
}

namespace {

// Best-first walker for FindNearest. A state stands for the Levenshtein
// column of its path prefix against the target, whose minimum lower-
// bounds the distance of every key in the subtree (appending characters
// never lowers the column minimum). Columns are LevenshteinColumn bit
// vectors in a per-probe word arena, so a state is a few ints: its
// column's offset, the prefix length and the trie edge it came through.
// The prefix string is rebuilt from the edge chain only for the entries
// Emit keeps.
class NearestWalker {
 public:
  struct WState {
    size_t column;  // offset of the state's column in arena_
    int depth;      // prefix length
    int edge;       // index of the last edge in edges_; -1 at the root
  };

  // A candidate emitted by the traversal, not yet vetted for visibility:
  // the caller checks `keep` after releasing the index latch.
  struct Candidate {
    RowId row;
    int distance;
    std::string key;
  };

  // (RowId, key) entries the caller already rejected as stale.
  using Skip = std::set<std::pair<RowId, std::string>>;

  NearestWalker(const LevenshteinColumn& kernel, size_t k, const Skip& skip)
      : kernel_(kernel), k_(k), skip_(skip),
        scratch_(kernel.column_words()) {}

  WState Root() {
    arena_.resize(kernel_.column_words());
    kernel_.Init(arena_.data());
    return {0, 0, -1};
  }

  std::optional<WState> Descend(const TrieOps::Inner& inner, size_t slot,
                                const WState& state) {
    char label = inner.labels[slot];
    if (label == '\0') return state;  // end-of-key: same depth
    size_t column = arena_.size();
    arena_.resize(column + kernel_.column_words());
    kernel_.Step(arena_.data() + state.column, arena_.data() + column, label);
    edges_.push_back({label, state.edge});
    return WState{column, state.depth + 1,
                  static_cast<int>(edges_.size()) - 1};
  }

  double Bound(const WState& state) const {
    return kernel_.Min(arena_.data() + state.column, state.depth);
  }

  std::optional<double> LeafDistance(const WState& state,
                                     const TrieOps::Key& suffix) {
    const uint64_t* column = arena_.data() + state.column;
    for (char c : suffix) {
      kernel_.Step(column, scratch_.data(), c);
      column = scratch_.data();
    }
    return kernel_.Score(column,
                         state.depth + static_cast<int>(suffix.size()));
  }

  bool Emit(const WState& state, const TrieOps::Key& suffix, uint64_t payload,
            double dist) {
    // Entries arrive in nondecreasing distance; past the k-th distance
    // nothing can join the result (ties at it still can).
    if (results_.size() >= k_ && dist > results_.back().distance) {
      return false;
    }
    // Every retained version of a row owns an entry, so a row can surface
    // more than once; only its first entry takes a slot. If that one turns
    // out stale, the rerun skips it and reaches the next.
    if (emitted_.count(payload) != 0) return true;
    std::string key = Path(state) + suffix;
    if (skip_.count({payload, key}) != 0) return true;  // known-stale entry
    emitted_.insert(payload);
    results_.push_back({payload, static_cast<int>(dist), std::move(key)});
    return true;
  }

  std::vector<Candidate> Take() { return std::move(results_); }

 private:
  struct Edge {
    char label;
    int parent;  // index in edges_; -1 below the root
  };

  std::string Path(const WState& state) const {
    std::string path(static_cast<size_t>(state.depth), '\0');
    size_t at = path.size();
    for (int e = state.edge; e >= 0; e = edges_[e].parent) {
      path[--at] = edges_[e].label;
    }
    return path;
  }

  const LevenshteinColumn& kernel_;
  size_t k_;
  const Skip& skip_;
  std::vector<uint64_t> arena_;
  std::vector<Edge> edges_;
  std::vector<uint64_t> scratch_;  // LeafDistance's column
  std::set<RowId> emitted_;
  std::vector<Candidate> results_;
};

// Depth-first walker for FindAlign: the state is the Smith–Waterman DP
// row of the path prefix against the query plus the best cell seen, so
// keys sharing a trie prefix share that much of the O(n*m) work. Local
// alignment admits no sound subtree cutoff — a high-scoring match can
// start anywhere in the unseen suffix — so every subtree is visited;
// the win is the shared-prefix DP and per-leaf-group dedup of duplicate
// sequences, not pruning.
class AlignWalker {
 public:
  struct WState {
    std::vector<int> row;
    int best = 0;
  };

  AlignWalker(const std::string& query, int min_score, bool strict,
              const AlignmentParams& params)
      : query_(query), min_score_(min_score), strict_(strict),
        params_(params) {}

  WState Root() const {
    WState s;
    s.row.assign(query_.size() + 1, 0);
    return s;
  }

  std::optional<WState> Descend(const TrieOps::Inner& inner, size_t slot,
                                const WState& state) const {
    if (inner.labels[slot] == '\0') return state;
    WState next = state;
    ExtendInPlace(&next, inner.labels[slot]);
    return next;
  }

  bool Leaf(const WState& state, const TrieOps::Key& suffix,
            uint64_t payload) {
    // Duplicate sequences arrive consecutively and are scored once per
    // group. The group key must be the *values* the verdict depends on
    // (DP row, best cell, suffix) — the state's address is a loop-local
    // in SearchGuided and aliases across unrelated leaf nodes.
    if (!last_valid_ || state.best != last_best_ || suffix != last_suffix_ ||
        state.row != last_row_) {
      WState full = state;
      for (char c : suffix) ExtendInPlace(&full, c);
      last_valid_ = true;
      last_row_ = state.row;
      last_best_ = state.best;
      last_suffix_ = suffix;
      last_passed_ =
          strict_ ? full.best > min_score_ : full.best >= min_score_;
    }
    if (last_passed_) rows_.push_back(payload);
    return true;
  }

  std::vector<RowId> Take() { return std::move(rows_); }

 private:
  void ExtendInPlace(WState* s, char c) const {
    int diag = s->row[0];
    for (size_t j = 1; j <= query_.size(); ++j) {
      int score = diag + (query_[j - 1] == c ? params_.match
                                             : params_.mismatch);
      diag = s->row[j];
      score = std::max({0, score, s->row[j] + params_.gap,
                        s->row[j - 1] + params_.gap});
      s->row[j] = score;
      s->best = std::max(s->best, score);
    }
  }

  const std::string& query_;
  int min_score_;
  bool strict_;
  AlignmentParams params_;
  bool last_valid_ = false;
  std::vector<int> last_row_;
  int last_best_ = 0;
  TrieOps::Key last_suffix_;
  bool last_passed_ = false;
  std::vector<RowId> rows_;
};

}  // namespace

Result<std::vector<RowId>> SequenceIndex::FindNearest(
    const std::string& target, size_t k,
    const std::function<bool(RowId, const std::string*)>& keep) const {
  // `keep` consults the table (MVCC visibility + stored-cell equality),
  // and every DML and index-build path takes the table lock *before* this
  // index's latch. Invoking it mid-traversal under latch_ would invert that
  // order, so candidates are gathered under the lock and vetted after it
  // is released.
  std::vector<RowId> null_rows;
  {
    std::shared_lock lock(latch_);
    null_rows.reserve(null_rows_.size());
    for (const auto& [row, entries] : null_rows_) null_rows.push_back(row);
  }
  // DISTANCE(NULL, t) is NULL, which sorts before every number: visible
  // NULL cells come first, in RowId order, each taking one of the k slots.
  std::vector<RowId> out;
  for (RowId row : null_rows) {
    if (out.size() == k) return out;
    if (keep(row, nullptr)) out.push_back(row);
  }
  size_t want = k - out.size();
  if (want == 0) return out;
  // Stale trie entries are blacklisted and the traversal restarts without
  // them, so they never occupy one of the slots. Each restart blacklists
  // at least one more entry, so the loop terminates.
  LevenshteinColumn kernel(target);
  NearestWalker::Skip stale;
  for (;;) {
    std::vector<NearestWalker::Candidate> candidates;
    {
      std::shared_lock lock(latch_);
      NearestWalker walker(kernel, want, stale);
      BDBMS_RETURN_IF_ERROR(trie_->SearchOrdered(walker));
      candidates = walker.Take();
    }
    std::vector<NearestWalker::Candidate> kept;
    kept.reserve(candidates.size());
    size_t known_stale = stale.size();
    for (NearestWalker::Candidate& c : candidates) {
      if (keep(c.row, &c.key)) {
        kept.push_back(std::move(c));
      } else {
        stale.emplace(c.row, std::move(c.key));
      }
    }
    if (stale.size() != known_stale) continue;
    std::stable_sort(kept.begin(), kept.end(),
                     [](const NearestWalker::Candidate& a,
                        const NearestWalker::Candidate& b) {
                       return a.distance != b.distance
                                  ? a.distance < b.distance
                                  : a.row < b.row;
                     });
    for (const NearestWalker::Candidate& c : kept) out.push_back(c.row);
    return out;
  }
}

Result<std::vector<RowId>> SequenceIndex::FindAlign(
    const std::string& query, int min_score, bool strict,
    const AlignmentParams& params) const {
  std::shared_lock lock(latch_);
  AlignWalker walker(query, min_score, strict, params);
  BDBMS_RETURN_IF_ERROR(trie_->SearchGuided(walker));
  std::vector<RowId> rows = walker.Take();
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace bdbms
