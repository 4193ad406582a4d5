// Non-traditional access methods on biological data (paper §7): index
// RLE-compressed protein secondary structures with the SBC-tree and search
// them without decompression; index gene names in an SP-GiST trie for
// exact/prefix/regex match; run k-NN over structure points with the
// SP-GiST kd-tree.
#include <cstdio>

#include "bio/sequence_generator.h"
#include "common/rle.h"
#include "index/sbc/sbc_tree.h"
#include "index/sbc/string_btree.h"
#include "index/spgist/kd_ops.h"
#include "index/spgist/trie_ops.h"

using namespace bdbms;  // example code; the library itself never does this

int main() {
  SequenceGenerator gen(2026);

  // --- SBC-tree over compressed secondary structures ----------------------
  auto sbc = SbcTree::CreateInMemory();
  auto baseline = StringBTree::CreateInMemory();
  if (!sbc.ok() || !baseline.ok()) return 1;

  std::vector<FastaRecord> fasta;
  std::vector<std::string> structures;
  for (size_t i = 0; i < 40; ++i) {
    std::string ss = gen.SecondaryStructure(800, 8.0);
    structures.push_back(ss);
    (void)(*sbc)->AddSequence(ss);
    (void)(*baseline)->AddSequence(ss);
    fasta.push_back({SequenceGenerator::GeneId(i), "secondary structure", ss});
  }
  std::printf("indexed %zu structures (FASTA preview):\n%s...\n\n",
              structures.size(),
              WriteFasta({fasta[0]}, 60).substr(0, 140).c_str());

  std::printf("compressed form of sequence 0: %s...\n\n",
              Rle::CompressToText(structures[0]).substr(0, 60).c_str());

  std::printf("storage: SBC-tree %llu bytes vs String B-tree %llu bytes "
              "(%.1fx smaller)\n",
              static_cast<unsigned long long>((*sbc)->SizeBytes()),
              static_cast<unsigned long long>((*baseline)->SizeBytes()),
              static_cast<double>((*baseline)->SizeBytes()) /
                  static_cast<double>((*sbc)->SizeBytes()));
  std::printf("suffix entries: %llu vs %llu\n\n",
              static_cast<unsigned long long>((*sbc)->entry_count()),
              static_cast<unsigned long long>((*baseline)->entry_count()));

  std::string motif = structures[7].substr(100, 14);
  auto matches = (*sbc)->SearchSubstring(motif);
  auto base_matches = (*baseline)->SearchSubstring(motif);
  if (matches.ok() && base_matches.ok()) {
    std::printf("motif '%s':\n  SBC-tree (no decompression): %zu run-anchored "
                "matches\n  String B-tree: %zu character positions\n\n",
                motif.c_str(), matches->size(), base_matches->size());
  }

  // --- SP-GiST trie over gene names ---------------------------------------
  auto trie = SpGistTrie::Create({});
  if (!trie.ok()) return 1;
  std::vector<std::string> names;
  for (size_t i = 0; i < 5000; ++i) {
    names.push_back(gen.GeneName());
    (void)(*trie)->Insert(names.back(), i);
  }
  size_t prefix_hits = 0;
  (void)(*trie)->Search(TrieOps::Prefix(names[0].substr(0, 2)),
                        [&](const std::string&, uint64_t) {
                          ++prefix_hits;
                          return true;
                        });
  auto re = RegexProgram::Compile("a.[a-z]*[A-Z]");
  size_t regex_hits = 0;
  if (re.ok()) {
    (void)(*trie)->Search(TrieOps::Regex(&*re),
                          [&](const std::string&, uint64_t) {
                            ++regex_hits;
                            return true;
                          });
  }
  std::printf("SP-GiST trie over %zu gene names: prefix '%s*' -> %zu hits, "
              "regex 'a.[a-z]*[A-Z]' -> %zu hits\n\n",
              names.size(), names[0].substr(0, 2).c_str(), prefix_hits,
              regex_hits);

  // --- SP-GiST kd-tree over structure points ------------------------------
  KdOps::Config config;
  config.bounds = {0, 0, 1000, 1000};
  auto kd = SpGistKdTree::Create(config);
  if (!kd.ok()) return 1;
  auto points = gen.StructurePoints(10000, config.bounds);
  for (size_t i = 0; i < points.size(); ++i) (void)(*kd)->Insert(points[i], i);
  auto knn = SearchKnn(**kd, 500, 500, 5);
  if (knn.ok()) {
    std::printf("5 residues nearest to the structure center:\n");
    for (const auto& [id, dist] : *knn) {
      std::printf("  residue %llu at distance %.2f\n",
                  static_cast<unsigned long long>(id), dist);
    }
  }
  return 0;
}
