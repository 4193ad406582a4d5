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
  if (cell.is_null()) return Status::Ok();  // NULLs are never probe-visible
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
  if (cell.is_null()) return Status::Ok();
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

// Best-first walker for FindNearest: the state is the Levenshtein DP row
// of the path prefix against the target, whose minimum lower-bounds the
// distance of every key in the subtree (appending characters never
// shrinks the row minimum).
class NearestWalker {
 public:
  struct WState {
    std::string prefix;
    std::vector<int> row;
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

  NearestWalker(const std::string& target, size_t k, const Skip& skip)
      : target_(target), k_(k), skip_(skip) {}

  WState Root() const {
    WState s;
    s.row.resize(target_.size() + 1);
    for (size_t j = 0; j <= target_.size(); ++j) {
      s.row[j] = static_cast<int>(j);
    }
    return s;
  }

  std::optional<WState> Descend(const TrieOps::Inner& inner, size_t slot,
                                const WState& state) const {
    if (inner.labels[slot] == '\0') return state;  // end-of-key: same depth
    WState next;
    next.prefix = state.prefix + inner.labels[slot];
    next.row = Extend(state.row, inner.labels[slot], next.prefix.size());
    return next;
  }

  double Bound(const WState& state) const {
    return *std::min_element(state.row.begin(), state.row.end());
  }

  std::optional<double> LeafDistance(const WState& state,
                                     const TrieOps::Key& suffix) const {
    std::vector<int> row = state.row;
    size_t depth = state.prefix.size();
    for (char c : suffix) row = Extend(row, c, ++depth);
    return static_cast<double>(row[target_.size()]);
  }

  bool Emit(const WState& state, const TrieOps::Key& suffix, uint64_t payload,
            double dist) {
    // Entries arrive in nondecreasing distance; past the k-th distance
    // nothing can join the result (ties at it still can).
    if (results_.size() >= k_ && dist > results_.back().distance) {
      return false;
    }
    std::string key = state.prefix + suffix;
    if (skip_.count({payload, key}) != 0) return true;  // known-stale entry
    // Every retained version of a row owns an entry, so a row can surface
    // more than once; only its first entry takes a slot. If that one turns
    // out stale, the rerun skips it and reaches the next.
    if (!emitted_.insert(payload).second) return true;
    results_.push_back({payload, static_cast<int>(dist), std::move(key)});
    return true;
  }

  std::vector<Candidate> Take() { return std::move(results_); }

 private:
  // One Levenshtein DP step: the row for prefix length `depth` from the
  // row of length depth-1, appending character c.
  std::vector<int> Extend(const std::vector<int>& prev, char c,
                          size_t depth) const {
    std::vector<int> row(target_.size() + 1);
    row[0] = static_cast<int>(depth);
    for (size_t j = 1; j <= target_.size(); ++j) {
      int sub = prev[j - 1] + (target_[j - 1] == c ? 0 : 1);
      row[j] = std::min({sub, prev[j] + 1, row[j - 1] + 1});
    }
    return row;
  }

  const std::string& target_;
  size_t k_;
  const Skip& skip_;
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

Result<std::vector<SequenceIndex::Neighbor>> SequenceIndex::FindNearest(
    const std::string& target, size_t k,
    const std::function<bool(RowId, const std::string&)>& keep) const {
  if (k == 0) return std::vector<Neighbor>{};
  // `keep` consults the table (MVCC visibility + stored-cell equality),
  // and every DML and index-build path takes the table lock *before* this
  // index's latch. Invoking it mid-traversal under latch_ would invert that
  // order, so candidates are gathered under the lock and vetted after it
  // is released; stale entries are blacklisted and the traversal restarts
  // without them, so they never occupy one of the k slots. Each restart
  // blacklists at least one more entry, so the loop terminates.
  NearestWalker::Skip stale;
  for (;;) {
    std::vector<NearestWalker::Candidate> candidates;
    {
      std::shared_lock lock(latch_);
      NearestWalker walker(target, k, stale);
      BDBMS_RETURN_IF_ERROR(trie_->SearchOrdered(walker));
      candidates = walker.Take();
    }
    std::vector<Neighbor> out;
    out.reserve(candidates.size());
    size_t known_stale = stale.size();
    for (const NearestWalker::Candidate& c : candidates) {
      if (keep(c.row, c.key)) {
        out.push_back({c.row, c.distance});
      } else {
        stale.emplace(c.row, c.key);
      }
    }
    if (stale.size() != known_stale) continue;
    std::stable_sort(out.begin(), out.end(),
                     [](const Neighbor& a, const Neighbor& b) {
                       return a.distance != b.distance
                                  ? a.distance < b.distance
                                  : a.row < b.row;
                     });
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
