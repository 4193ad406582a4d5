#ifndef BDBMS_INDEX_SPGIST_TRIE_OPS_H_
#define BDBMS_INDEX_SPGIST_TRIE_OPS_H_

#include <algorithm>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "index/spgist/regex.h"
#include "index/spgist/spgist.h"

namespace bdbms {

// SP-GiST operator class instantiating a disk-based trie over byte
// strings (paper §7.1: "disk-based trie variants"). Inner nodes partition
// by next character; the reserved label '\0' collects keys exhausted at
// this depth, so embedded NUL bytes are not supported. Supports exact
// match, prefix match and regular-expression match (via RegexProgram,
// advanced once per edge with dead-state pruning).
struct TrieOps {
  using Key = std::string;  // the suffix remaining below this node

  struct Config {};

  struct State {
    std::string prefix;  // characters consumed on the path from the root
    // Regex searches carry the NFA state set reached after consuming
    // `prefix`, advanced once per edge by DescendSearch. It is empty only
    // at the root, whose set is the program's start set (and on insert
    // paths, which never read it).
    std::vector<uint64_t> nfa;
  };

  struct Inner {
    std::vector<char> labels;  // '\0' = end-of-key child
    std::vector<uint64_t> children;

    size_t NumChildren() const { return children.size(); }
    uint64_t child(size_t i) const { return children[i]; }
    void set_child(size_t i, uint64_t v) { children[i] = v; }

    size_t FindOrAddLabel(char label, bool* added) {
      for (size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] == label) {
          *added = false;
          return i;
        }
      }
      labels.push_back(label);
      children.push_back(kSpGistNullNode);
      *added = true;
      return labels.size() - 1;
    }
  };

  enum class QueryKind { kExact, kPrefix, kRegex };
  struct Query {
    QueryKind kind = QueryKind::kExact;
    std::string text;                   // exact / prefix target
    const RegexProgram* regex = nullptr;  // kRegex
  };

  static Query Exact(std::string text) {
    return {QueryKind::kExact, std::move(text), nullptr};
  }
  static Query Prefix(std::string text) {
    return {QueryKind::kPrefix, std::move(text), nullptr};
  }
  static Query Regex(const RegexProgram* prog) {
    return {QueryKind::kRegex, "", prog};
  }

  static State RootState(const Config&) { return {}; }

  struct ChooseResult {
    size_t slot;
    bool modified;
  };

  static ChooseResult Choose(Inner* inner, Key* key, const State&) {
    char label = key->empty() ? '\0' : (*key)[0];
    if (!key->empty()) key->erase(0, 1);
    bool added = false;
    size_t slot = inner->FindOrAddLabel(label, &added);
    return {slot, added};
  }

  static State Descend(const Inner& inner, size_t slot, const State& state) {
    State next = state;
    if (inner.labels[slot] != '\0') next.prefix.push_back(inner.labels[slot]);
    return next;
  }

  // Query-aware descent for Search/Remove: the regex NFA state set is
  // advanced across the edge exactly once, and an edge whose set dies (or
  // an end-of-key edge whose set does not accept) is pruned before its
  // child node is read.
  static std::optional<State> DescendSearch(const Inner& inner, size_t slot,
                                            const State& state,
                                            const Query& query) {
    State next = Descend(inner, slot, state);
    if (query.kind != QueryKind::kRegex) return next;
    const RegexProgram& regex = *query.regex;
    std::span<const uint64_t> from = NfaStates(query, state);
    next.nfa.resize(regex.words());
    if (inner.labels[slot] == '\0') {
      // Keys ending here carry a leaf suffix of "": they match iff the
      // set reached so far accepts.
      if (!regex.Accepting(from)) return std::nullopt;
      std::copy(from.begin(), from.end(), next.nfa.begin());
    } else if (!regex.Advance(from, inner.labels[slot], next.nfa)) {
      return std::nullopt;
    }
    return next;
  }

  static void PickSplit(const State&,
                        std::vector<std::pair<Key, uint64_t>>* entries,
                        Inner* inner,
                        std::vector<std::vector<std::pair<Key, uint64_t>>>*
                            partitions) {
    for (auto& [key, payload] : *entries) {
      char label = key.empty() ? '\0' : key[0];
      bool added = false;
      size_t slot = inner->FindOrAddLabel(label, &added);
      if (added) partitions->emplace_back();
      while (partitions->size() < inner->NumChildren()) {
        partitions->emplace_back();
      }
      Key rest = key.empty() ? Key() : key.substr(1);
      (*partitions)[slot].emplace_back(std::move(rest), payload);
    }
  }

  static void SearchChildren(const Inner& inner, const Query& query,
                             const State& state, std::vector<size_t>* out) {
    switch (query.kind) {
      case QueryKind::kExact: {
        // The path consumed state.prefix; it must be a prefix of the
        // target or this subtree is dead.
        if (query.text.compare(0, state.prefix.size(), state.prefix) != 0 ||
            state.prefix.size() > query.text.size()) {
          return;
        }
        char want = state.prefix.size() == query.text.size()
                        ? '\0'
                        : query.text[state.prefix.size()];
        for (size_t i = 0; i < inner.labels.size(); ++i) {
          if (inner.labels[i] == want) out->push_back(i);
        }
        return;
      }
      case QueryKind::kPrefix: {
        size_t depth = state.prefix.size();
        if (depth >= query.text.size()) {
          // Prefix fully consumed: the whole subtree matches.
          AllChildren(inner, out);
          return;
        }
        char want = query.text[depth];
        for (size_t i = 0; i < inner.labels.size(); ++i) {
          if (inner.labels[i] == want) out->push_back(i);
        }
        return;
      }
      case QueryKind::kRegex:
        // Every edge is a candidate: DescendSearch advances the NFA
        // across it once and prunes the dead ones.
        AllChildren(inner, out);
        return;
    }
  }

  static bool LeafConsistent(const Query& query, const State& state,
                             const Key& key) {
    switch (query.kind) {
      case QueryKind::kExact:
        return state.prefix.size() + key.size() == query.text.size() &&
               query.text.compare(0, state.prefix.size(), state.prefix) == 0 &&
               query.text.compare(state.prefix.size(), key.size(), key) == 0;
      case QueryKind::kPrefix: {
        std::string full = state.prefix + key;
        return full.size() >= query.text.size() &&
               full.compare(0, query.text.size(), query.text) == 0;
      }
      case QueryKind::kRegex:
        return query.regex->MatchesFrom(NfaStates(query, state), key);
    }
    return false;
  }

  static bool KeyEquals(const Key& a, const Key& b) { return a == b; }

  // The NFA state set DescendSearch carried to this node; the root has
  // none yet and starts from the program's start set.
  static std::span<const uint64_t> NfaStates(const Query& query,
                                             const State& state) {
    if (state.nfa.empty()) return query.regex->Start();
    return state.nfa;
  }

  static void AllChildren(const Inner& inner, std::vector<size_t>* out) {
    for (size_t i = 0; i < inner.labels.size(); ++i) out->push_back(i);
  }

  static void EncodeKey(const Key& key, std::string* out) {
    uint32_t len = static_cast<uint32_t>(key.size());
    out->append(reinterpret_cast<const char*>(&len), 4);
    out->append(key);
  }
  static Result<Key> DecodeKey(std::string_view data, size_t* off) {
    if (*off + 4 > data.size()) return Status::Corruption("trie key");
    uint32_t len;
    std::memcpy(&len, data.data() + *off, 4);
    *off += 4;
    if (*off + len > data.size()) return Status::Corruption("trie key");
    Key key(data.substr(*off, len));
    *off += len;
    return key;
  }
  static void EncodeInner(const Inner& inner, std::string* out) {
    uint32_t n = static_cast<uint32_t>(inner.labels.size());
    out->append(reinterpret_cast<const char*>(&n), 4);
    for (size_t i = 0; i < inner.labels.size(); ++i) {
      out->push_back(inner.labels[i]);
      out->append(reinterpret_cast<const char*>(&inner.children[i]), 8);
    }
  }
  static Result<Inner> DecodeInner(std::string_view data, size_t* off) {
    if (*off + 4 > data.size()) return Status::Corruption("trie inner");
    uint32_t n;
    std::memcpy(&n, data.data() + *off, 4);
    *off += 4;
    Inner inner;
    for (uint32_t i = 0; i < n; ++i) {
      if (*off + 9 > data.size()) return Status::Corruption("trie inner");
      inner.labels.push_back(data[*off]);
      ++*off;
      uint64_t child;
      std::memcpy(&child, data.data() + *off, 8);
      *off += 8;
      inner.children.push_back(child);
    }
    return inner;
  }
};

using SpGistTrie = SpGistIndex<TrieOps>;

}  // namespace bdbms

#endif  // BDBMS_INDEX_SPGIST_TRIE_OPS_H_
