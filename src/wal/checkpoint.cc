#include "wal/checkpoint.h"

#include <cstring>

#include "common/crc32.h"
#include "core/database.h"
#include "storage/page.h"
#include "wal/serializer.h"

namespace bdbms {

namespace {

constexpr char kMagic[8] = {'B', 'D', 'B', 'M', 'S', 'C', 'P', '1'};
constexpr uint32_t kFileVersion = 1;
// v1: full row dump per table. v2: adds a checkpoint generation + heap-file
// name counter, and paged tables record a heap-file reference (name + page
// count) instead of dumping rows — the incremental-checkpoint format.
constexpr uint32_t kSnapshotVersion = 2;

// Header page layout: magic[8], u32 file version, u64 payload length,
// u32 payload CRC-32.
constexpr size_t kHeaderBytes = 8 + 4 + 8 + 4;

}  // namespace

Status WriteCheckpointFile(WalEnv* env, const std::string& dir,
                           std::string_view payload) {
  const std::string tmp = dir + "/" + kCheckpointTmpFileName;
  const std::string final_path = dir + "/" + kCheckpointFileName;
  if (env->FileExists(tmp)) {
    BDBMS_RETURN_IF_ERROR(env->RemoveFile(tmp));
  }
  {
    BDBMS_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> file,
                           env->OpenPageFile(tmp));

    std::string header;
    BinaryWriter w(&header);
    header.append(kMagic, sizeof(kMagic));
    w.U32(kFileVersion);
    w.U64(payload.size());
    w.U32(Crc32(payload));

    Page page;
    page.Zero();
    std::memcpy(page.bytes(), header.data(), kHeaderBytes);
    BDBMS_RETURN_IF_ERROR(file->Write(0, page.bytes(), kPageSize));
    BDBMS_RETURN_IF_ERROR(file->Write(
        kPageSize, reinterpret_cast<const uint8_t*>(payload.data()),
        payload.size()));
    // Zero-pad the last payload page so the file stays page-granular.
    const size_t tail = payload.size() % kPageSize;
    if (tail != 0) {
      page.Zero();
      BDBMS_RETURN_IF_ERROR(file->Write(kPageSize + payload.size(),
                                        page.bytes(), kPageSize - tail));
    }
    // The snapshot must be on stable storage *before* the rename makes it
    // the checkpoint other state (the truncated WAL) depends on.
    BDBMS_RETURN_IF_ERROR(file->Sync());
  }
  BDBMS_RETURN_IF_ERROR(env->RenameFile(tmp, final_path));
  return env->SyncDir(dir);
}

Result<std::string> ReadCheckpointFile(WalEnv* env, const std::string& dir) {
  const std::string path = dir + "/" + kCheckpointFileName;
  BDBMS_ASSIGN_OR_RETURN(std::string file, env->ReadFileToString(path));
  if (file.size() % kPageSize != 0) {
    return Status::Corruption(path + ": size is not a multiple of page size");
  }
  if (file.empty()) {
    return Status::Corruption(path + ": empty checkpoint file");
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption(path + ": bad checkpoint magic");
  }
  BinaryReader header(std::string_view(file).substr(
      sizeof(kMagic), kHeaderBytes - sizeof(kMagic)));
  BDBMS_ASSIGN_OR_RETURN(uint32_t version, header.U32());
  if (version != kFileVersion) {
    return Status::Corruption(path + ": unsupported checkpoint version " +
                              std::to_string(version));
  }
  BDBMS_ASSIGN_OR_RETURN(uint64_t payload_len, header.U64());
  BDBMS_ASSIGN_OR_RETURN(uint32_t payload_crc, header.U32());
  if (payload_len > file.size() - kPageSize) {
    return Status::Corruption(path + ": payload length " +
                              std::to_string(payload_len) +
                              " exceeds file capacity");
  }
  // Reuse the file buffer for the payload: drop the header page and the
  // zero padding in place.
  file.erase(0, kPageSize);
  file.resize(payload_len);
  if (Crc32(file) != payload_crc) {
    return Status::Corruption(path + ": checkpoint payload CRC mismatch");
  }
  return file;
}

// ---------------------------------------------------------------------------
// Snapshot payload: the full statement-driven engine state.
// ---------------------------------------------------------------------------

namespace {

void WriteRow(BinaryWriter* w, const Row& row) {
  w->U32(static_cast<uint32_t>(row.size()));
  for (const Value& v : row) w->Val(v);
}

Result<Row> ReadRow(BinaryReader* r) {
  BDBMS_ASSIGN_OR_RETURN(uint32_t n, r->U32());
  Row row;
  row.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    BDBMS_ASSIGN_OR_RETURN(Value v, r->Val());
    row.push_back(std::move(v));
  }
  return row;
}

void WriteOptValue(BinaryWriter* w, const std::optional<Value>& v) {
  w->U8(v.has_value() ? 1 : 0);
  if (v.has_value()) w->Val(*v);
}

Result<std::optional<Value>> ReadOptValue(BinaryReader* r) {
  BDBMS_ASSIGN_OR_RETURN(uint8_t has, r->U8());
  if (!has) return std::optional<Value>();
  BDBMS_ASSIGN_OR_RETURN(Value v, r->Val());
  return std::optional<Value>(std::move(v));
}

}  // namespace

Result<std::string> Database::SerializeSnapshot(uint64_t last_lsn,
                                                uint64_t gen) const {
  std::string out;
  BinaryWriter w(&out);
  w.U32(kSnapshotVersion);
  w.U64(last_lsn);
  w.U64(clock_.Peek());
  // Paged-heap globals: the generation the heaps staged their dirty pages
  // under (journal application key) and the heap-file name counter.
  w.U64(gen);
  w.U64(paged_ ? paged_->next_heap_file : 0);

  // --- user tables: schema, heap rows, annotations, indexes, stats ------
  std::vector<std::string> table_names = catalog_.ListTables();
  w.U32(static_cast<uint32_t>(table_names.size()));
  for (const std::string& name : table_names) {
    BDBMS_ASSIGN_OR_RETURN(TableSchema schema, catalog_.GetSchema(name));
    w.Str(name);
    w.U32(static_cast<uint32_t>(schema.num_columns()));
    for (const ColumnDef& col : schema.columns()) {
      w.Str(col.name);
      w.U8(static_cast<uint8_t>(col.type));
    }

    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::Internal("catalog table " + name + " has no storage");
    }
    const Table& table = *it->second;
    w.U8(table.paged() ? 1 : 0);
    if (table.paged()) {
      // The rows already live durably in the heap file (CheckpointPrepare
      // staged every dirty page under `gen` before this runs); record a
      // reference instead of dumping them. row_count doubles as a restore
      // sanity check.
      w.Str(table.heap_file_name());
      w.U32(table.heap_page_count());
      w.U64(table.next_row_id());
      w.U64(table.row_count());
    } else {
      w.U64(table.next_row_id());
      w.U64(table.row_count());
      Status scan = table.Scan([&](RowId row_id, const Row& row) {
        w.U64(row_id);
        WriteRow(&w, row);
        return Status::Ok();
      });
      BDBMS_RETURN_IF_ERROR(scan);
    }

    std::vector<AnnotationTableInfo> anns = catalog_.ListAnnotationTables(name);
    w.U32(static_cast<uint32_t>(anns.size()));
    for (const AnnotationTableInfo& info : anns) {
      w.Str(info.name);
      w.U8(info.is_provenance ? 1 : 0);
      BDBMS_ASSIGN_OR_RETURN(AnnotationTable * ann,
                             annotations_.Get(name, info.name));
      w.U64(ann->next_id());
      w.U64(ann->count());
      Status body_err = Status::Ok();
      ann->ForEach(/*include_archived=*/true, [&](const AnnotationMeta& meta) {
        w.U64(meta.id);
        w.U64(meta.timestamp);
        w.U8(meta.archived ? 1 : 0);
        w.Str(meta.author);
        w.U32(static_cast<uint32_t>(meta.regions.size()));
        for (const Region& r : meta.regions) {
          w.U64(r.columns);
          w.U64(r.row_begin);
          w.U64(r.row_end);
        }
        auto body = ann->Body(meta.id);
        if (!body.ok()) {
          if (body_err.ok()) body_err = body.status();
          w.Str("");
          return;
        }
        w.Str(*body);
      });
      BDBMS_RETURN_IF_ERROR(body_err);
    }

    std::vector<IndexInfo> indexes = catalog_.ListIndexes(name);
    w.U32(static_cast<uint32_t>(indexes.size()));
    for (const IndexInfo& idx : indexes) {
      w.Str(idx.name);
      w.U8(static_cast<uint8_t>(idx.kind));
      w.U32(static_cast<uint32_t>(idx.columns.size()));
      for (const std::string& col : idx.columns) w.Str(col);
    }

    const TableStats* stats = catalog_.GetStats(name);
    w.U8(stats ? 1 : 0);
    if (stats) {
      w.U64(stats->row_count);
      w.U32(static_cast<uint32_t>(stats->columns.size()));
      for (const ColumnStats& cs : stats->columns) {
        w.U64(cs.non_null);
        w.U64(cs.null_count);
        w.U64(cs.ndv);
        WriteOptValue(&w, cs.min);
        WriteOptValue(&w, cs.max);
        w.U8(cs.histogram.has_value() ? 1 : 0);
        if (cs.histogram) {
          w.F64(cs.histogram->lo);
          w.F64(cs.histogram->hi);
          w.U64(cs.histogram->total);
          w.U32(static_cast<uint32_t>(cs.histogram->counts.size()));
          for (uint64_t c : cs.histogram->counts) w.U64(c);
        }
      }
    }
  }

  // --- deletion log (kept even for since-dropped tables) -----------------
  w.U32(static_cast<uint32_t>(deletion_log_.size()));
  for (const auto& [tname, entries] : deletion_log_) {
    w.Str(tname);
    w.U32(static_cast<uint32_t>(entries.size()));
    for (const DeletionLogEntry& e : entries) {
      w.U64(e.row);
      WriteRow(&w, e.old_values);
      w.Str(e.annotation);
      w.Str(e.issuer);
      w.U64(e.timestamp);
    }
  }

  // --- dependency rules + outdated bitmaps -------------------------------
  const auto& rules = dependencies_.rules();
  w.U32(static_cast<uint32_t>(rules.size()));
  for (const auto& [rname, rule] : rules) {
    w.Str(rule.name);
    w.U32(static_cast<uint32_t>(rule.sources.size()));
    for (const ColumnRef& src : rule.sources) {
      w.Str(src.table);
      w.Str(src.column);
    }
    w.Str(rule.target.table);
    w.Str(rule.target.column);
    w.Str(rule.procedure);
    w.U8(rule.join.has_value() ? 1 : 0);
    if (rule.join) {
      w.Str(rule.join->source_key_column);
      w.Str(rule.join->target_key_column);
    }
  }
  std::vector<std::pair<std::string, const OutdatedBitmap*>> bitmaps;
  for (const std::string& name : table_names) {
    const OutdatedBitmap* bm = dependencies_.FindBitmap(name);
    if (bm != nullptr && !bm->entries().empty()) bitmaps.emplace_back(name, bm);
  }
  w.U32(static_cast<uint32_t>(bitmaps.size()));
  for (const auto& [tname, bm] : bitmaps) {
    w.Str(tname);
    w.U64(bm->entries().size());
    for (const auto& [row, mask] : bm->entries()) {
      w.U64(row);
      w.U64(mask);
    }
  }

  // --- access control ----------------------------------------------------
  auto write_string_set = [&w](const std::set<std::string>& set) {
    w.U32(static_cast<uint32_t>(set.size()));
    for (const std::string& s : set) w.Str(s);
  };
  write_string_set(access_.users());
  write_string_set(access_.superusers());
  w.U32(static_cast<uint32_t>(access_.group_members().size()));
  for (const auto& [group, members] : access_.group_members()) {
    w.Str(group);
    write_string_set(members);
  }
  w.U32(static_cast<uint32_t>(access_.grants().size()));
  for (const auto& [key, privs] : access_.grants()) {
    w.Str(key.first);   // principal
    w.Str(key.second);  // table
    w.U32(static_cast<uint32_t>(privs.size()));
    for (Privilege p : privs) w.U8(static_cast<uint8_t>(p));
  }

  // --- provenance system agents ------------------------------------------
  write_string_set(provenance_.system_agents());

  // --- approvals ---------------------------------------------------------
  w.U32(static_cast<uint32_t>(approvals_.configs().size()));
  for (const auto& [tname, cfg] : approvals_.configs()) {
    w.Str(tname);
    w.U8(cfg.enabled ? 1 : 0);
    w.U64(cfg.columns);
    w.Str(cfg.approver);
  }
  w.U32(static_cast<uint32_t>(approvals_.log().size()));
  for (const auto& [op_id, op] : approvals_.log()) {
    w.U64(op.op_id);
    w.U8(static_cast<uint8_t>(op.type));
    w.U8(static_cast<uint8_t>(op.state));
    w.Str(op.table);
    w.U64(op.row);
    w.Str(op.issuer);
    w.U64(op.timestamp);
    WriteRow(&w, op.old_row);
    WriteRow(&w, op.new_row);
    w.Str(op.inverse_sql);
  }
  w.U64(approvals_.next_op_id());

  return out;
}

Status Database::LoadSnapshot(std::string_view payload, uint64_t* last_lsn) {
  BinaryReader r(payload);
  BDBMS_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != 1 && version != kSnapshotVersion) {
    return Status::Corruption("unsupported snapshot version " +
                              std::to_string(version));
  }
  BDBMS_ASSIGN_OR_RETURN(*last_lsn, r.U64());
  BDBMS_ASSIGN_OR_RETURN(uint64_t clock_next, r.U64());
  uint64_t gen = 0;
  if (version >= 2) {
    BDBMS_ASSIGN_OR_RETURN(gen, r.U64());
    BDBMS_ASSIGN_OR_RETURN(uint64_t next_heap_file, r.U64());
    if (paged_) {
      paged_->checkpoint_gen = gen;
      paged_->next_heap_file = next_heap_file;
    }
  }

  // --- user tables -------------------------------------------------------
  BDBMS_ASSIGN_OR_RETURN(uint32_t n_tables, r.U32());
  for (uint32_t t = 0; t < n_tables; ++t) {
    BDBMS_ASSIGN_OR_RETURN(std::string name, r.Str());
    TableSchema schema(name);
    BDBMS_ASSIGN_OR_RETURN(uint32_t n_cols, r.U32());
    for (uint32_t c = 0; c < n_cols; ++c) {
      BDBMS_ASSIGN_OR_RETURN(std::string col_name, r.Str());
      BDBMS_ASSIGN_OR_RETURN(uint8_t type, r.U8());
      BDBMS_RETURN_IF_ERROR(
          schema.AddColumn(col_name, static_cast<DataType>(type)));
    }
    BDBMS_RETURN_IF_ERROR(catalog_.CreateTable(schema));
    uint8_t paged_table = 0;
    if (version >= 2) {
      BDBMS_ASSIGN_OR_RETURN(paged_table, r.U8());
    }
    std::unique_ptr<Table> table;
    if (paged_table) {
      BDBMS_ASSIGN_OR_RETURN(std::string heap_name, r.Str());
      BDBMS_ASSIGN_OR_RETURN(uint32_t heap_pages, r.U32());
      BDBMS_ASSIGN_OR_RETURN(uint64_t next_row_id, r.U64());
      BDBMS_ASSIGN_OR_RETURN(uint64_t row_cnt, r.U64());
      if (paged_ == nullptr) {
        return Status::Corruption("snapshot references paged heap " +
                                  heap_name +
                                  " but no heap directory is attached");
      }
      const std::string path = paged_->heap_dir + "/" + heap_name;
      // Repair the heap to exactly the committed checkpoint's state
      // (apply or discard a leftover redo journal, cut provisional
      // extensions, drop the overlay) before scanning it.
      BDBMS_RETURN_IF_ERROR(
          Pager::RecoverPagedHeap(paged_->env, path, gen, heap_pages));
      BDBMS_ASSIGN_OR_RETURN(
          table, Table::OpenPaged(schema, paged_->env, path,
                                  paged_->pool_pages));
      table->set_readahead_pages(paged_->readahead_pages);
      if (table->row_count() != row_cnt) {
        return Status::Corruption(
            "paged heap " + heap_name + " holds " +
            std::to_string(table->row_count()) +
            " rows, checkpoint records " + std::to_string(row_cnt));
      }
      table->AdvanceNextRowId(next_row_id);
    } else {
      BDBMS_ASSIGN_OR_RETURN(table, Table::CreateInMemory(schema));
      BDBMS_ASSIGN_OR_RETURN(uint64_t next_row_id, r.U64());
      BDBMS_ASSIGN_OR_RETURN(uint64_t n_rows, r.U64());
      for (uint64_t i = 0; i < n_rows; ++i) {
        BDBMS_ASSIGN_OR_RETURN(uint64_t row_id, r.U64());
        BDBMS_ASSIGN_OR_RETURN(Row row, ReadRow(&r));
        BDBMS_RETURN_IF_ERROR(table->InsertWithRowId(row_id, std::move(row)));
      }
      table->AdvanceNextRowId(next_row_id);
    }
    tables_[name] = std::move(table);

    BDBMS_ASSIGN_OR_RETURN(uint32_t n_ann, r.U32());
    for (uint32_t a = 0; a < n_ann; ++a) {
      BDBMS_ASSIGN_OR_RETURN(std::string ann_name, r.Str());
      BDBMS_ASSIGN_OR_RETURN(uint8_t is_prov, r.U8());
      BDBMS_RETURN_IF_ERROR(
          catalog_.CreateAnnotationTable(name, ann_name, is_prov != 0));
      BDBMS_RETURN_IF_ERROR(annotations_.CreateAnnotationTable(name, ann_name));
      BDBMS_ASSIGN_OR_RETURN(AnnotationTable * ann,
                             annotations_.Get(name, ann_name));
      BDBMS_ASSIGN_OR_RETURN(uint64_t next_ann_id, r.U64());
      BDBMS_ASSIGN_OR_RETURN(uint64_t n_annotations, r.U64());
      for (uint64_t i = 0; i < n_annotations; ++i) {
        AnnotationMeta meta;
        BDBMS_ASSIGN_OR_RETURN(meta.id, r.U64());
        BDBMS_ASSIGN_OR_RETURN(meta.timestamp, r.U64());
        BDBMS_ASSIGN_OR_RETURN(uint8_t archived, r.U8());
        meta.archived = archived != 0;
        BDBMS_ASSIGN_OR_RETURN(meta.author, r.Str());
        BDBMS_ASSIGN_OR_RETURN(uint32_t n_regions, r.U32());
        for (uint32_t g = 0; g < n_regions; ++g) {
          Region region;
          BDBMS_ASSIGN_OR_RETURN(region.columns, r.U64());
          BDBMS_ASSIGN_OR_RETURN(region.row_begin, r.U64());
          BDBMS_ASSIGN_OR_RETURN(region.row_end, r.U64());
          meta.regions.push_back(region);
        }
        BDBMS_ASSIGN_OR_RETURN(std::string body, r.Str());
        BDBMS_RETURN_IF_ERROR(ann->RestoreAnnotation(meta, body));
      }
      if (next_ann_id != ann->next_id()) {
        return Status::Corruption("annotation table " + name + "." +
                                  ann_name + ": next id diverged on restore");
      }
    }

    BDBMS_ASSIGN_OR_RETURN(uint32_t n_idx, r.U32());
    for (uint32_t i = 0; i < n_idx; ++i) {
      BDBMS_ASSIGN_OR_RETURN(std::string idx_name, r.Str());
      BDBMS_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
      BDBMS_ASSIGN_OR_RETURN(uint32_t n_key_cols, r.U32());
      std::vector<std::string> columns;
      for (uint32_t c = 0; c < n_key_cols; ++c) {
        BDBMS_ASSIGN_OR_RETURN(std::string col, r.Str());
        columns.push_back(std::move(col));
      }
      BDBMS_RETURN_IF_ERROR(catalog_.CreateIndex(
          name, idx_name, columns, static_cast<IndexKind>(kind)));
      Table* table_ptr = tables_[name].get();
      std::vector<size_t> col_indices;
      for (const std::string& col : columns) {
        BDBMS_ASSIGN_OR_RETURN(size_t idx,
                               table_ptr->schema().ColumnIndex(col));
        col_indices.push_back(idx);
      }
      if (static_cast<IndexKind>(kind) == IndexKind::kSpGist) {
        BDBMS_RETURN_IF_ERROR(
            table_ptr->CreateSequenceIndex(idx_name, col_indices.front()));
      } else {
        BDBMS_RETURN_IF_ERROR(
            table_ptr->CreateIndex(idx_name, std::move(col_indices)));
      }
    }

    BDBMS_ASSIGN_OR_RETURN(uint8_t has_stats, r.U8());
    if (has_stats) {
      TableStats stats;
      BDBMS_ASSIGN_OR_RETURN(stats.row_count, r.U64());
      BDBMS_ASSIGN_OR_RETURN(uint32_t n_stat_cols, r.U32());
      for (uint32_t c = 0; c < n_stat_cols; ++c) {
        ColumnStats cs;
        BDBMS_ASSIGN_OR_RETURN(cs.non_null, r.U64());
        BDBMS_ASSIGN_OR_RETURN(cs.null_count, r.U64());
        BDBMS_ASSIGN_OR_RETURN(cs.ndv, r.U64());
        BDBMS_ASSIGN_OR_RETURN(cs.min, ReadOptValue(&r));
        BDBMS_ASSIGN_OR_RETURN(cs.max, ReadOptValue(&r));
        BDBMS_ASSIGN_OR_RETURN(uint8_t has_hist, r.U8());
        if (has_hist) {
          Histogram h;
          BDBMS_ASSIGN_OR_RETURN(h.lo, r.F64());
          BDBMS_ASSIGN_OR_RETURN(h.hi, r.F64());
          BDBMS_ASSIGN_OR_RETURN(h.total, r.U64());
          BDBMS_ASSIGN_OR_RETURN(uint32_t n_buckets, r.U32());
          for (uint32_t b = 0; b < n_buckets; ++b) {
            BDBMS_ASSIGN_OR_RETURN(uint64_t count, r.U64());
            h.counts.push_back(count);
          }
          cs.histogram = std::move(h);
        }
        stats.columns.push_back(std::move(cs));
      }
      BDBMS_RETURN_IF_ERROR(catalog_.SetStats(name, std::move(stats)));
    }
  }

  // --- deletion log ------------------------------------------------------
  BDBMS_ASSIGN_OR_RETURN(uint32_t n_dl, r.U32());
  for (uint32_t i = 0; i < n_dl; ++i) {
    BDBMS_ASSIGN_OR_RETURN(std::string tname, r.Str());
    BDBMS_ASSIGN_OR_RETURN(uint32_t n_entries, r.U32());
    std::vector<DeletionLogEntry>& entries = deletion_log_[tname];
    for (uint32_t e = 0; e < n_entries; ++e) {
      DeletionLogEntry entry;
      BDBMS_ASSIGN_OR_RETURN(entry.row, r.U64());
      BDBMS_ASSIGN_OR_RETURN(entry.old_values, ReadRow(&r));
      BDBMS_ASSIGN_OR_RETURN(entry.annotation, r.Str());
      BDBMS_ASSIGN_OR_RETURN(entry.issuer, r.Str());
      BDBMS_ASSIGN_OR_RETURN(entry.timestamp, r.U64());
      entries.push_back(std::move(entry));
    }
  }

  // --- dependency rules + outdated bitmaps -------------------------------
  BDBMS_ASSIGN_OR_RETURN(uint32_t n_rules, r.U32());
  for (uint32_t i = 0; i < n_rules; ++i) {
    DependencyRule rule;
    BDBMS_ASSIGN_OR_RETURN(rule.name, r.Str());
    BDBMS_ASSIGN_OR_RETURN(uint32_t n_src, r.U32());
    for (uint32_t s = 0; s < n_src; ++s) {
      ColumnRef src;
      BDBMS_ASSIGN_OR_RETURN(src.table, r.Str());
      BDBMS_ASSIGN_OR_RETURN(src.column, r.Str());
      rule.sources.push_back(std::move(src));
    }
    BDBMS_ASSIGN_OR_RETURN(rule.target.table, r.Str());
    BDBMS_ASSIGN_OR_RETURN(rule.target.column, r.Str());
    BDBMS_ASSIGN_OR_RETURN(rule.procedure, r.Str());
    BDBMS_ASSIGN_OR_RETURN(uint8_t has_join, r.U8());
    if (has_join) {
      KeyJoin join;
      BDBMS_ASSIGN_OR_RETURN(join.source_key_column, r.Str());
      BDBMS_ASSIGN_OR_RETURN(join.target_key_column, r.Str());
      rule.join = std::move(join);
    }
    Status added = dependencies_.AddRule(std::move(rule));
    if (!added.ok()) {
      return Status::Corruption(
          "checkpoint restore: dependency rule rejected (" +
          added.message() +
          ") — procedures must be re-registered via "
          "DurabilityOptions::bootstrap before recovery");
    }
  }
  BDBMS_ASSIGN_OR_RETURN(uint32_t n_bitmaps, r.U32());
  for (uint32_t i = 0; i < n_bitmaps; ++i) {
    BDBMS_ASSIGN_OR_RETURN(std::string tname, r.Str());
    BDBMS_ASSIGN_OR_RETURN(OutdatedBitmap * bitmap,
                           dependencies_.BitmapFor(tname));
    BDBMS_ASSIGN_OR_RETURN(uint64_t n_marks, r.U64());
    for (uint64_t m = 0; m < n_marks; ++m) {
      BDBMS_ASSIGN_OR_RETURN(uint64_t row, r.U64());
      BDBMS_ASSIGN_OR_RETURN(uint64_t mask, r.U64());
      for (size_t col = 0; col < kMaxColumns; ++col) {
        if (mask & ColumnBit(col)) bitmap->Mark(row, col);
      }
    }
  }

  // --- access control ----------------------------------------------------
  auto read_string_set = [&r]() -> Result<std::vector<std::string>> {
    BDBMS_ASSIGN_OR_RETURN(uint32_t n, r.U32());
    std::vector<std::string> out;
    for (uint32_t i = 0; i < n; ++i) {
      BDBMS_ASSIGN_OR_RETURN(std::string s, r.Str());
      out.push_back(std::move(s));
    }
    return out;
  };
  BDBMS_ASSIGN_OR_RETURN(std::vector<std::string> users, read_string_set());
  for (const std::string& u : users) {
    BDBMS_RETURN_IF_ERROR(access_.CreateUser(u));
  }
  BDBMS_ASSIGN_OR_RETURN(std::vector<std::string> superusers,
                         read_string_set());
  for (const std::string& u : superusers) access_.AddSuperuser(u);
  BDBMS_ASSIGN_OR_RETURN(uint32_t n_groups, r.U32());
  for (uint32_t i = 0; i < n_groups; ++i) {
    BDBMS_ASSIGN_OR_RETURN(std::string group, r.Str());
    BDBMS_RETURN_IF_ERROR(access_.CreateGroup(group));
    BDBMS_ASSIGN_OR_RETURN(std::vector<std::string> members,
                           read_string_set());
    for (const std::string& m : members) {
      BDBMS_RETURN_IF_ERROR(access_.AddToGroup(m, group));
    }
  }
  BDBMS_ASSIGN_OR_RETURN(uint32_t n_grants, r.U32());
  for (uint32_t i = 0; i < n_grants; ++i) {
    BDBMS_ASSIGN_OR_RETURN(std::string principal, r.Str());
    BDBMS_ASSIGN_OR_RETURN(std::string tname, r.Str());
    BDBMS_ASSIGN_OR_RETURN(uint32_t n_privs, r.U32());
    for (uint32_t p = 0; p < n_privs; ++p) {
      BDBMS_ASSIGN_OR_RETURN(uint8_t priv, r.U8());
      BDBMS_RETURN_IF_ERROR(
          access_.Grant(principal, tname, static_cast<Privilege>(priv)));
    }
  }

  // --- provenance system agents ------------------------------------------
  BDBMS_ASSIGN_OR_RETURN(std::vector<std::string> agents, read_string_set());
  for (const std::string& a : agents) provenance_.RegisterSystemAgent(a);

  // --- approvals ---------------------------------------------------------
  BDBMS_ASSIGN_OR_RETURN(uint32_t n_configs, r.U32());
  for (uint32_t i = 0; i < n_configs; ++i) {
    BDBMS_ASSIGN_OR_RETURN(std::string tname, r.Str());
    ApprovalConfig cfg;
    BDBMS_ASSIGN_OR_RETURN(uint8_t enabled, r.U8());
    cfg.enabled = enabled != 0;
    BDBMS_ASSIGN_OR_RETURN(cfg.columns, r.U64());
    BDBMS_ASSIGN_OR_RETURN(cfg.approver, r.Str());
    approvals_.RestoreConfig(tname, std::move(cfg));
  }
  BDBMS_ASSIGN_OR_RETURN(uint32_t n_ops, r.U32());
  for (uint32_t i = 0; i < n_ops; ++i) {
    LoggedOperation op;
    BDBMS_ASSIGN_OR_RETURN(op.op_id, r.U64());
    BDBMS_ASSIGN_OR_RETURN(uint8_t type, r.U8());
    op.type = static_cast<OpType>(type);
    BDBMS_ASSIGN_OR_RETURN(uint8_t state, r.U8());
    op.state = static_cast<OpState>(state);
    BDBMS_ASSIGN_OR_RETURN(op.table, r.Str());
    BDBMS_ASSIGN_OR_RETURN(op.row, r.U64());
    BDBMS_ASSIGN_OR_RETURN(op.issuer, r.Str());
    BDBMS_ASSIGN_OR_RETURN(op.timestamp, r.U64());
    BDBMS_ASSIGN_OR_RETURN(op.old_row, ReadRow(&r));
    BDBMS_ASSIGN_OR_RETURN(op.new_row, ReadRow(&r));
    BDBMS_ASSIGN_OR_RETURN(op.inverse_sql, r.Str());
    BDBMS_RETURN_IF_ERROR(approvals_.RestoreOperation(std::move(op)));
  }
  BDBMS_ASSIGN_OR_RETURN(uint64_t next_op_id, r.U64());
  approvals_.RestoreNextOpId(next_op_id);

  if (!r.AtEnd()) {
    return Status::Corruption("checkpoint payload has trailing bytes");
  }
  clock_.Reset(clock_next);
  return Status::Ok();
}

}  // namespace bdbms
