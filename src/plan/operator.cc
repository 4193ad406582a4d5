#include "plan/operator.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <unordered_map>

#include "bio/alignment.h"
#include "plan/expr_eval.h"
#include "sql/ast_printer.h"

namespace bdbms {

std::string ExplainPlan(const PlanNode& root) {
  std::string out;
  std::function<void(const PlanNode&, size_t)> walk = [&](const PlanNode& node,
                                                          size_t depth) {
    out.append(depth * 2, ' ');
    out += node.Describe();
    char est[64];
    std::snprintf(est, sizeof(est), "  (rows=%.0f cost=%.1f)",
                  node.est_rows(), node.est_cost());
    out += est;
    out += '\n';
    for (const PlanNode* child : node.Children()) walk(*child, depth + 1);
  };
  walk(root, 0);
  return out;
}

Status DrainPlan(PlanNode* root, std::vector<PlanTuple>* out) {
  BDBMS_RETURN_IF_ERROR(root->Open());
  PlanTuple tuple;
  for (;;) {
    BDBMS_ASSIGN_OR_RETURN(bool more, root->Next(&tuple));
    if (!more) break;
    out->push_back(std::move(tuple));
    tuple = PlanTuple{};
  }
  return Status::Ok();
}

void DeduplicateTuples(std::vector<PlanTuple>* tuples) {
  std::map<std::string, size_t> seen;
  std::vector<PlanTuple> unique;
  for (PlanTuple& t : *tuples) {
    std::string key = TupleKey(t.values);
    auto [it, inserted] = seen.emplace(key, unique.size());
    if (inserted) {
      unique.push_back(std::move(t));
    } else {
      // Duplicate elimination unions annotations (paper §3.4).
      PlanTuple& kept = unique[it->second];
      for (size_t c = 0; c < kept.anns.size(); ++c) {
        MergeAnnotations(&kept.anns[c], t.anns[c]);
      }
      kept.has_source = false;
    }
  }
  *tuples = std::move(unique);
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

namespace {

// Appends the synthesized `_outdated` annotations (paper §5) for the
// outdated cells of `row_id`. Shared by every metadata-attaching scan so
// the rendering cannot drift between access paths.
void AppendOutdatedAnnotations(
    const ExecContext* ctx, const std::string& table_name, RowId row_id,
    std::vector<std::vector<ResultAnnotation>>* anns) {
  ColumnMask outdated = ctx->dependencies->OutdatedMask(table_name, row_id);
  if (outdated == 0) return;
  for (size_t col = 0; col < anns->size(); ++col) {
    if (outdated & ColumnBit(col)) {
      (*anns)[col].push_back(
          {kOutdatedCategory, 0,
           "<Outdated>value pending re-verification</Outdated>", "system",
           0});
    }
  }
}

}  // namespace

ScanNodeBase::ScanNodeBase(const ExecContext* ctx, Table* table,
                           std::string table_name, std::string qualifier,
                           std::vector<std::string> ann_names,
                           bool attach_metadata)
    : ctx_(ctx),
      table_(table),
      table_name_(std::move(table_name)),
      qualifier_(std::move(qualifier)),
      ann_names_(std::move(ann_names)),
      attach_metadata_(attach_metadata) {
  columns_ = QualifiedColumns(table_->schema(), qualifier_);
}

Status ScanNodeBase::Open() {
  ann_tables_.clear();
  for (const std::string& ann_name : ann_names_) {
    BDBMS_ASSIGN_OR_RETURN(AnnotationTable * at,
                           ctx_->annotations->Get(table_name_, ann_name));
    ann_tables_.push_back(at);
  }
  cache_.clear();
  pos_ = 0;
  BDBMS_ASSIGN_OR_RETURN(candidates_, CollectCandidates());
  return Status::Ok();
}

Result<bool> ScanNodeBase::Next(PlanTuple* out) {
  size_t ncols = table_->schema().num_columns();
  const MvccSnapshot& snap = ctx_->snapshot;
  while (pos_ < candidates_.size()) {
    RowId row_id = candidates_[pos_++];
    // Every retained version of a row owns its own index entries, so an
    // index probe can return a RowId more than once (adjacent: candidates
    // are sorted).
    if (pos_ > 1 && candidates_[pos_ - 2] == row_id) continue;
    // Visibility resolution replaces a liveness check, and index
    // candidates can be stale — the subclass re-verifies its probe
    // against the version the snapshot actually sees.
    BDBMS_ASSIGN_OR_RETURN(std::optional<Row> visible,
                           table_->GetVisible(row_id, snap));
    if (!visible.has_value()) continue;
    if (!RecheckVisible(*visible)) continue;
    out->values = std::move(*visible);
    out->anns.assign(ncols, {});
    out->source_row = row_id;
    out->has_source = true;
    if (!attach_metadata_) return true;
    for (size_t a = 0; a < ann_tables_.size(); ++a) {
      AnnotationTable* at = ann_tables_[a];
      for (size_t col = 0; col < ncols; ++col) {
        for (AnnotationId id : at->IdsForCell(row_id, col, &snap)) {
          auto key = std::make_pair(ann_names_[a], id);
          auto it = cache_.find(key);
          if (it == cache_.end()) {
            BDBMS_ASSIGN_OR_RETURN(std::string body, at->Body(id));
            BDBMS_ASSIGN_OR_RETURN(AnnotationMeta meta, at->Meta(id));
            ResultAnnotation ra{ann_names_[a], id, std::move(body),
                                meta.author, meta.timestamp};
            it = cache_.emplace(key, std::move(ra)).first;
          }
          out->anns[col].push_back(it->second);
        }
      }
    }
    AppendOutdatedAnnotations(ctx_, table_name_, row_id, &out->anns);
    return true;
  }
  return false;
}

std::string ScanNodeBase::DescribeSuffix() const {
  std::string out;
  if (qualifier_ != table_name_) out += " AS " + qualifier_;
  if (!ann_names_.empty()) {
    out += " ANNOTATION(";
    for (size_t i = 0; i < ann_names_.size(); ++i) {
      if (i > 0) out += ", ";
      out += ann_names_[i];
    }
    out += ")";
  }
  return out;
}

Result<std::vector<RowId>> SeqScanNode::CollectCandidates() {
  return table_->VisibleRowIds(ctx_->snapshot);
}

std::string SeqScanNode::Describe() const {
  std::string out = "SeqScan " + table_name_ + DescribeSuffix();
  if (table_->paged()) {
    // Cumulative buffer-pool counters of the paged heap — how much of the
    // table the pool served from memory vs faulted from disk.
    BufferPoolStats bs = table_->buffer_stats();
    out += " buffers(hit=" + std::to_string(bs.hits) +
           " miss=" + std::to_string(bs.misses) +
           " evict=" + std::to_string(bs.evictions) + ")";
  }
  return out;
}

namespace {

// Re-evaluates an index probe against the indexed cells of a row — used by
// index scans to reject candidates reached through a dead index entry
// whose key differs from the version the snapshot sees.
bool ProbeMatchesRow(const IndexProbe& probe, const std::vector<size_t>& cols,
                     const Row& row) {
  for (size_t i = 0; i < probe.eq.size(); ++i) {
    if (row[cols[i]].Compare(probe.eq[i]) != 0) return false;
  }
  if (probe.lo || probe.hi || probe.like_prefix) {
    const Value& cell = row[cols[probe.eq.size()]];
    // No SQL comparison or LIKE predicate is ever true on NULL.
    if (cell.is_null()) return false;
    if (probe.like_prefix) {
      if (!cell.is_string()) return false;
      const std::string& s = cell.as_string();
      return s.compare(0, probe.like_prefix->size(), *probe.like_prefix) == 0;
    }
    if (probe.lo) {
      int c = cell.Compare(probe.lo->value);
      if (c < 0 || (c == 0 && !probe.lo->inclusive)) return false;
    }
    if (probe.hi) {
      int c = cell.Compare(probe.hi->value);
      if (c > 0 || (c == 0 && !probe.hi->inclusive)) return false;
    }
  }
  return true;
}

}  // namespace

Result<std::vector<RowId>> IndexScanNode::CollectCandidates() {
  return index_->Find(probe_);
}

bool IndexScanNode::RecheckVisible(const Row& row) const {
  return ProbeMatchesRow(probe_, index_->columns(), row);
}

bool IndexScanNode::BindEqualityKey(const Value& key) {
  DataType column_type = table_->schema().column(index_->column()).type;
  if (!ProbeMatchesEquality(key.type(), column_type)) return false;
  probe_.eq.assign(1, key);
  return true;
}

std::string IndexScanNode::Describe() const {
  // predicate_text_ is already parenthesized per conjunct. A probe whose
  // trailing constraint is a folded LIKE prefix announces itself as
  // ScanPrefix — the access pattern differs (one contiguous key range
  // under the prefix), and the goldens pin the distinction.
  const char* label =
      probe_.like_prefix.has_value() ? "ScanPrefix " : "IndexScan ";
  return label + table_name_ + DescribeSuffix() + " USING " +
         index_->name() + " " + predicate_text_;
}

Result<std::vector<RowId>> SpgistScanNode::CollectCandidates() {
  return probe_.exact ? index_->FindExact(probe_.text)
                      : index_->FindPrefix(probe_.text);
}

bool SpgistScanNode::RecheckVisible(const Row& row) const {
  const Value& cell = row[index_->column()];
  if (!cell.is_string()) return false;
  const std::string& s = cell.as_string();
  if (probe_.exact) return s == probe_.text;
  return s.compare(0, probe_.text.size(), probe_.text) == 0;
}

std::string SpgistScanNode::Describe() const {
  return "SpgistScan " + table_name_ + DescribeSuffix() + " USING " +
         index_->name() + " " + predicate_text_;
}

Result<std::vector<RowId>> SpgistRegexScanNode::CollectCandidates() {
  return index_->FindRegex(program_);
}

bool SpgistRegexScanNode::RecheckVisible(const Row& row) const {
  const Value& cell = row[index_->column()];
  if (!cell.is_string()) return false;
  return program_.FullMatch(cell.as_string());
}

std::string SpgistRegexScanNode::Describe() const {
  return "SpgistRegexScan " + table_name_ + DescribeSuffix() + " USING " +
         index_->name() + " " + predicate_text_;
}

Result<std::vector<RowId>> SpgistTopKScanNode::CollectCandidates() {
  // Visibility is resolved inside the traversal: a stale index entry whose
  // key no longer matches the visible row must not occupy one of the k
  // slots, or a genuinely close row would be cut off.
  auto keep = [&](RowId row_id, const std::string* key) -> bool {
    auto visible = table_->GetVisible(row_id, ctx_->snapshot);
    if (!visible.ok() || !visible->has_value()) return false;
    const Value& cell = (**visible)[index_->column()];
    if (key == nullptr) return cell.is_null();
    return cell.is_string() && cell.as_string() == *key;
  };
  return index_->FindNearest(target_, k_, keep);
}

std::string SpgistTopKScanNode::Describe() const {
  return "SpgistTopKScan " + table_name_ + DescribeSuffix() + " USING " +
         index_->name() + " " + predicate_text_;
}

Result<std::vector<RowId>> SpgistAlignScanNode::CollectCandidates() {
  return index_->FindAlign(query_, min_score_, strict_);
}

bool SpgistAlignScanNode::RecheckVisible(const Row& row) const {
  const Value& cell = row[index_->column()];
  if (!cell.is_string()) return false;
  int score = SmithWatermanScore(cell.as_string(), query_);
  return strict_ ? score > min_score_ : score >= min_score_;
}

std::string SpgistAlignScanNode::Describe() const {
  return "SpgistAlignScan " + table_name_ + DescribeSuffix() + " USING " +
         index_->name() + " " + predicate_text_;
}

Result<std::vector<RowId>> AnnIntervalScanNode::CollectCandidates() {
  const MvccSnapshot& snap = ctx_->snapshot;
  std::set<RowId> rows;
  RowId extent = table_->next_row_id();
  for (const std::string& ann_name : ann_names_) {
    BDBMS_ASSIGN_OR_RETURN(AnnotationTable * at,
                           ctx_->annotations->Get(table_name_, ann_name));
    for (const auto& [begin, end] : at->LiveRowIntervals(snap)) {
      RowId capped = std::min(end, extent == 0 ? end : extent - 1);
      for (RowId r : table_->VisibleRowIdsInRange(begin, capped, snap)) {
        rows.insert(r);
      }
    }
  }
  // Outdated cells synthesize annotations too, so those rows can also
  // satisfy an AWHERE condition.
  const OutdatedBitmap* bitmap = ctx_->dependencies->FindBitmap(table_name_);
  if (bitmap != nullptr) {
    for (const auto& [row, mask] : bitmap->entries()) {
      if (mask == 0) continue;
      BDBMS_ASSIGN_OR_RETURN(std::optional<Row> visible,
                             table_->GetVisible(row, snap));
      if (visible.has_value()) rows.insert(row);
    }
  }
  return std::vector<RowId>(rows.begin(), rows.end());
}

std::string AnnIntervalScanNode::Describe() const {
  return "AnnIntervalScan " + table_name_ + DescribeSuffix() +
         " (annotated row intervals + outdated rows)";
}

// ---------------------------------------------------------------------------
// Streaming operators
// ---------------------------------------------------------------------------

FilterNode::FilterNode(PlanNodePtr child, std::vector<const Expr*> predicates)
    : child_(std::move(child)), predicates_(std::move(predicates)) {
  columns_ = child_->columns();
}

Status FilterNode::Open() { return child_->Open(); }

Result<bool> FilterNode::Next(PlanTuple* out) {
  for (;;) {
    BDBMS_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    bool keep = true;
    for (const Expr* predicate : predicates_) {
      BDBMS_ASSIGN_OR_RETURN(Value v, EvalScalar(*predicate, columns_, *out));
      BDBMS_ASSIGN_OR_RETURN(keep, Truthy(v));
      if (!keep) break;
    }
    if (keep) return true;
  }
}

std::string FilterNode::Describe() const {
  std::string out = "Filter ";
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (i > 0) out += " AND ";
    out += ExprToString(*predicates_[i]);
  }
  return out;
}

std::vector<const PlanNode*> FilterNode::Children() const {
  return {child_.get()};
}

AWhereNode::AWhereNode(PlanNodePtr child, const Expr* condition)
    : child_(std::move(child)), condition_(condition) {
  columns_ = child_->columns();
}

Status AWhereNode::Open() { return child_->Open(); }

Result<bool> AWhereNode::Next(PlanTuple* out) {
  for (;;) {
    BDBMS_ASSIGN_OR_RETURN(bool more, child_->Next(out));
    if (!more) return false;
    BDBMS_ASSIGN_OR_RETURN(bool keep, TupleAnnMatch(*condition_, *out));
    if (keep) return true;
  }
}

std::string AWhereNode::Describe() const {
  return "AWhere " + ExprToString(*condition_);
}

std::vector<const PlanNode*> AWhereNode::Children() const {
  return {child_.get()};
}

AnnotFilterNode::AnnotFilterNode(PlanNodePtr child, const Expr* condition)
    : child_(std::move(child)), condition_(condition) {
  columns_ = child_->columns();
}

Status AnnotFilterNode::Open() { return child_->Open(); }

Result<bool> AnnotFilterNode::Next(PlanTuple* out) {
  BDBMS_ASSIGN_OR_RETURN(bool more, child_->Next(out));
  if (!more) return false;
  for (auto& per_col : out->anns) {
    std::vector<ResultAnnotation> kept;
    for (ResultAnnotation& a : per_col) {
      BDBMS_ASSIGN_OR_RETURN(Value v, EvalAnnExpr(*condition_, a));
      BDBMS_ASSIGN_OR_RETURN(bool keep, Truthy(v));
      if (keep) kept.push_back(std::move(a));
    }
    per_col = std::move(kept);
  }
  return true;
}

std::string AnnotFilterNode::Describe() const {
  return "AnnotFilter " + ExprToString(*condition_);
}

std::vector<const PlanNode*> AnnotFilterNode::Children() const {
  return {child_.get()};
}

PromoteNode::PromoteNode(PlanNodePtr child, std::vector<Mapping> mappings)
    : child_(std::move(child)), mappings_(std::move(mappings)) {
  columns_ = child_->columns();
}

Status PromoteNode::Open() { return child_->Open(); }

Result<bool> PromoteNode::Next(PlanTuple* out) {
  BDBMS_ASSIGN_OR_RETURN(bool more, child_->Next(out));
  if (!more) return false;
  // Merge from a snapshot of the input's annotations: PROMOTE reads the
  // operand's own columns, so one mapping's target must never feed
  // another mapping's source.
  std::vector<std::vector<ResultAnnotation>> source_anns = out->anns;
  for (const auto& [target, sources] : mappings_) {
    for (size_t src : sources) {
      if (src == target) continue;  // self-promote is a no-op
      MergeAnnotations(&out->anns[target], source_anns[src]);
    }
  }
  return true;
}

std::string PromoteNode::Describe() const {
  std::string out = "Promote";
  for (size_t m = 0; m < mappings_.size(); ++m) {
    out += m == 0 ? " " : ", ";
    out += columns_[mappings_[m].first].name + " <- (";
    const auto& sources = mappings_[m].second;
    for (size_t i = 0; i < sources.size(); ++i) {
      if (i > 0) out += ", ";
      out += columns_[sources[i]].name;
    }
    out += ")";
  }
  return out;
}

std::vector<const PlanNode*> PromoteNode::Children() const {
  return {child_.get()};
}

ProjectNode::ProjectNode(PlanNodePtr child, std::vector<Item> items)
    : child_(std::move(child)), items_(std::move(items)) {
  for (const Item& item : items_) {
    columns_.push_back({item.name, item.qualifier});
  }
}

Status ProjectNode::Open() { return child_->Open(); }

Result<bool> ProjectNode::Next(PlanTuple* out) {
  PlanTuple in;
  BDBMS_ASSIGN_OR_RETURN(bool more, child_->Next(&in));
  if (!more) return false;
  out->values.clear();
  out->anns.clear();
  out->source_row = in.source_row;
  out->has_source = in.has_source;
  for (const Item& item : items_) {
    if (item.is_direct) {
      out->values.push_back(in.values[item.direct_index]);
      out->anns.push_back(in.anns[item.direct_index]);
    } else {
      BDBMS_ASSIGN_OR_RETURN(Value v,
                             EvalScalar(*item.expr, child_->columns(), in));
      out->values.push_back(std::move(v));
      out->anns.emplace_back();
    }
    for (size_t src : item.promote_sources) {
      MergeAnnotations(&out->anns.back(), in.anns[src]);
    }
  }
  return true;
}

std::string ProjectNode::Describe() const {
  std::string out = "Project [";
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out += ", ";
    out += items_[i].is_direct || items_[i].expr == nullptr
               ? items_[i].name
               : ExprToString(*items_[i].expr);
  }
  out += "]";
  return out;
}

std::vector<const PlanNode*> ProjectNode::Children() const {
  return {child_.get()};
}

HashAggregateNode::HashAggregateNode(PlanNodePtr child, const SelectStmt* stmt,
                                     std::vector<size_t> key_columns,
                                     std::vector<std::string> column_names)
    : child_(std::move(child)),
      stmt_(stmt),
      key_columns_(std::move(key_columns)) {
  for (std::string& name : column_names) {
    columns_.push_back({std::move(name), ""});
  }
}

Status HashAggregateNode::Open() {
  results_.clear();
  pos_ = 0;
  std::vector<PlanTuple> input;
  BDBMS_RETURN_IF_ERROR(DrainPlan(child_.get(), &input));
  const std::vector<BoundColumn>& in_cols = child_->columns();

  // Group tuples preserving first-seen order.
  std::unordered_map<std::string, size_t> group_index;
  std::vector<std::vector<const PlanTuple*>> groups;
  for (const PlanTuple& t : input) {
    std::string key;
    for (size_t k : key_columns_) t.values[k].EncodeTo(&key);
    auto [it, inserted] = group_index.emplace(key, groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(&t);
  }
  // An aggregate-only query over an empty input still yields one group.
  if (groups.empty() && stmt_->group_by.empty()) groups.emplace_back();

  for (const auto& group : groups) {
    if (stmt_->having) {
      BDBMS_ASSIGN_OR_RETURN(Value v,
                             EvalGroupExpr(*stmt_->having, in_cols, group));
      BDBMS_ASSIGN_OR_RETURN(bool keep, Truthy(v));
      if (!keep) continue;
    }
    if (stmt_->ahaving) {
      bool any = false;
      for (const PlanTuple* t : group) {
        BDBMS_ASSIGN_OR_RETURN(any, TupleAnnMatch(*stmt_->ahaving, *t));
        if (any) break;
      }
      if (!any) continue;
    }
    PlanTuple out_tuple;
    for (const SelectItem& item : stmt_->items) {
      BDBMS_ASSIGN_OR_RETURN(Value v,
                             EvalGroupExpr(*item.expr, in_cols, group));
      out_tuple.values.push_back(std::move(v));
      // Annotations: union across the group of the referenced column's
      // annotations (group/merge operators union annotations, §3.4).
      std::vector<ResultAnnotation> anns;
      const Expr* col_source = nullptr;
      if (item.expr->kind == ExprKind::kColumnRef) {
        col_source = item.expr.get();
      } else if (item.expr->kind == ExprKind::kAggregate && item.expr->child &&
                 item.expr->child->kind == ExprKind::kColumnRef) {
        col_source = item.expr->child.get();
      }
      if (col_source != nullptr) {
        auto bound =
            BindColumn(in_cols, col_source->qualifier, col_source->column);
        if (bound.ok()) {
          for (const PlanTuple* t : group) {
            MergeAnnotations(&anns, t->anns[*bound]);
          }
        }
      }
      for (const std::string& col : item.promote_columns) {
        BDBMS_ASSIGN_OR_RETURN(size_t idx, BindColumn(in_cols, "", col));
        for (const PlanTuple* t : group) {
          MergeAnnotations(&anns, t->anns[idx]);
        }
      }
      out_tuple.anns.push_back(std::move(anns));
    }
    results_.push_back(std::move(out_tuple));
  }
  return Status::Ok();
}

Result<bool> HashAggregateNode::Next(PlanTuple* out) {
  if (pos_ >= results_.size()) return false;
  *out = std::move(results_[pos_++]);
  return true;
}

std::string HashAggregateNode::Describe() const {
  std::string out = "HashAggregate";
  if (!stmt_->group_by.empty()) {
    out += " keys=[";
    for (size_t i = 0; i < stmt_->group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += stmt_->group_by[i];
    }
    out += "]";
  }
  out += " [";
  for (size_t i = 0; i < stmt_->items.size(); ++i) {
    if (i > 0) out += ", ";
    out += ExprToString(*stmt_->items[i].expr);
  }
  out += "]";
  if (stmt_->having) out += " HAVING " + ExprToString(*stmt_->having);
  if (stmt_->ahaving) out += " AHAVING " + ExprToString(*stmt_->ahaving);
  return out;
}

std::vector<const PlanNode*> HashAggregateNode::Children() const {
  return {child_.get()};
}

DistinctNode::DistinctNode(PlanNodePtr child) : child_(std::move(child)) {
  columns_ = child_->columns();
}

Status DistinctNode::Open() {
  results_.clear();
  pos_ = 0;
  BDBMS_RETURN_IF_ERROR(DrainPlan(child_.get(), &results_));
  DeduplicateTuples(&results_);
  return Status::Ok();
}

Result<bool> DistinctNode::Next(PlanTuple* out) {
  if (pos_ >= results_.size()) return false;
  *out = std::move(results_[pos_++]);
  return true;
}

std::string DistinctNode::Describe() const { return "Distinct"; }

std::vector<const PlanNode*> DistinctNode::Children() const {
  return {child_.get()};
}

SortNode::SortNode(PlanNodePtr child, std::vector<Key> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {
  columns_ = child_->columns();
}

Status SortNode::Open() {
  results_.clear();
  pos_ = 0;
  BDBMS_RETURN_IF_ERROR(DrainPlan(child_.get(), &results_));
  bool has_expr = false;
  for (const Key& k : keys_) has_expr |= k.expr != nullptr;
  if (!has_expr) {
    std::stable_sort(results_.begin(), results_.end(),
                     [&](const PlanTuple& a, const PlanTuple& b) {
                       for (const Key& k : keys_) {
                         int c = a.values[k.column].Compare(b.values[k.column]);
                         if (c != 0) return k.descending ? c > 0 : c < 0;
                       }
                       return false;
                     });
    return Status::Ok();
  }
  // Expression keys can fail (type errors), so evaluate them once per
  // tuple up front rather than inside the comparator.
  struct Decorated {
    std::vector<Value> keys;
    PlanTuple tuple;
  };
  std::vector<Decorated> rows;
  rows.reserve(results_.size());
  for (PlanTuple& t : results_) {
    Decorated d;
    d.keys.reserve(keys_.size());
    for (const Key& k : keys_) {
      if (k.expr != nullptr) {
        BDBMS_ASSIGN_OR_RETURN(Value v, EvalScalar(*k.expr, columns_, t));
        d.keys.push_back(std::move(v));
      } else {
        d.keys.push_back(t.values[k.column]);
      }
    }
    d.tuple = std::move(t);
    rows.push_back(std::move(d));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [&](const Decorated& a, const Decorated& b) {
                     for (size_t i = 0; i < keys_.size(); ++i) {
                       int c = a.keys[i].Compare(b.keys[i]);
                       if (c != 0) return keys_[i].descending ? c > 0 : c < 0;
                     }
                     return false;
                   });
  results_.clear();
  for (Decorated& d : rows) results_.push_back(std::move(d.tuple));
  return Status::Ok();
}

Result<bool> SortNode::Next(PlanTuple* out) {
  if (pos_ >= results_.size()) return false;
  *out = std::move(results_[pos_++]);
  return true;
}

std::string SortNode::Describe() const {
  std::string out = "Sort [";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    if (keys_[i].expr != nullptr) {
      out += ExprToString(*keys_[i].expr);
    } else {
      out += columns_[keys_[i].column].name;
    }
    out += keys_[i].descending ? " DESC" : " ASC";
  }
  out += "]";
  return out;
}

std::vector<const PlanNode*> SortNode::Children() const {
  return {child_.get()};
}

LimitNode::LimitNode(PlanNodePtr child, uint64_t limit)
    : child_(std::move(child)), limit_(limit) {
  columns_ = child_->columns();
}

Status LimitNode::Open() {
  produced_ = 0;
  return child_->Open();
}

Result<bool> LimitNode::Next(PlanTuple* out) {
  if (produced_ >= limit_) return false;
  BDBMS_ASSIGN_OR_RETURN(bool more, child_->Next(out));
  if (!more) return false;
  ++produced_;
  return true;
}

std::string LimitNode::Describe() const {
  return "Limit " + std::to_string(limit_);
}

std::vector<const PlanNode*> LimitNode::Children() const {
  return {child_.get()};
}

namespace {

// A join's output tuple: the left values and per-column annotations, then
// the right ones. It no longer corresponds to one stored row.
void ConcatTuples(const PlanTuple& left, const PlanTuple& right,
                  PlanTuple* out) {
  out->values = left.values;
  out->values.insert(out->values.end(), right.values.begin(),
                     right.values.end());
  out->anns = left.anns;
  out->anns.insert(out->anns.end(), right.anns.begin(), right.anns.end());
  out->source_row = 0;
  out->has_source = false;
}

// Whether every (left column, right column) key pair is equal under the
// engine's comparison; a NULL key never joins (SQL `=` is not true on it).
bool KeysEqual(const std::vector<std::pair<size_t, size_t>>& keys,
               const PlanTuple& left, const PlanTuple& right) {
  for (const auto& [l, r] : keys) {
    const Value& lv = left.values[l];
    if (lv.is_null() || lv.Compare(right.values[r]) != 0) return false;
  }
  return true;
}

}  // namespace

NestedLoopJoinNode::NestedLoopJoinNode(PlanNodePtr left, PlanNodePtr right)
    : left_(std::move(left)), right_(std::move(right)) {
  columns_ = left_->columns();
  const auto& right_cols = right_->columns();
  columns_.insert(columns_.end(), right_cols.begin(), right_cols.end());
}

Status NestedLoopJoinNode::Open() {
  right_tuples_.clear();
  have_left_ = false;
  right_pos_ = 0;
  BDBMS_RETURN_IF_ERROR(left_->Open());
  BDBMS_RETURN_IF_ERROR(DrainPlan(right_.get(), &right_tuples_));
  return Status::Ok();
}

Result<bool> NestedLoopJoinNode::Next(PlanTuple* out) {
  for (;;) {
    if (!have_left_ || right_pos_ >= right_tuples_.size()) {
      BDBMS_ASSIGN_OR_RETURN(bool more, left_->Next(&current_left_));
      if (!more) return false;
      have_left_ = true;
      right_pos_ = 0;
    }
    if (right_tuples_.empty()) {
      have_left_ = false;
      continue;
    }
    ConcatTuples(current_left_, right_tuples_[right_pos_++], out);
    return true;
  }
}

std::string NestedLoopJoinNode::Describe() const { return "NestedLoopJoin"; }

std::vector<const PlanNode*> NestedLoopJoinNode::Children() const {
  return {left_.get(), right_.get()};
}

HashJoinNode::HashJoinNode(PlanNodePtr left, PlanNodePtr right,
                           std::vector<std::pair<size_t, size_t>> keys,
                           std::string predicate_text)
    : left_(std::move(left)),
      right_(std::move(right)),
      keys_(std::move(keys)),
      predicate_text_(std::move(predicate_text)) {
  columns_ = left_->columns();
  const auto& right_cols = right_->columns();
  columns_.insert(columns_.end(), right_cols.begin(), right_cols.end());
  for (const auto& [l, r] : keys_) {
    left_cols_.push_back(l);
    right_cols_.push_back(r);
  }
}

bool HashJoinNode::EncodeKey(const PlanTuple& tuple,
                             const std::vector<size_t>& cols,
                             std::string* out) {
  out->clear();
  for (size_t c : cols) {
    const Value& v = tuple.values[c];
    if (v.is_null()) return false;
    if (v.is_numeric()) {
      double d = v.as_double();
      if (d == 0.0) d = 0.0;  // fold -0.0 into +0.0 (they compare equal)
      out->push_back('n');
      out->append(reinterpret_cast<const char*>(&d), sizeof(d));
    } else {
      const std::string& s = v.as_string();
      uint64_t len = s.size();
      out->push_back('s');
      out->append(reinterpret_cast<const char*>(&len), sizeof(len));
      out->append(s);
    }
  }
  return true;
}

Status HashJoinNode::Open() {
  build_.clear();
  have_left_ = false;
  bucket_ = nullptr;
  bucket_pos_ = 0;
  BDBMS_RETURN_IF_ERROR(left_->Open());
  std::vector<PlanTuple> right_tuples;
  BDBMS_RETURN_IF_ERROR(DrainPlan(right_.get(), &right_tuples));
  std::string key;
  for (PlanTuple& t : right_tuples) {
    if (!EncodeKey(t, right_cols_, &key)) continue;  // NULL key never joins
    build_[key].push_back(std::move(t));
  }
  return Status::Ok();
}

Result<bool> HashJoinNode::Next(PlanTuple* out) {
  std::string key;
  for (;;) {
    if (!have_left_ || bucket_ == nullptr || bucket_pos_ >= bucket_->size()) {
      BDBMS_ASSIGN_OR_RETURN(bool more, left_->Next(&current_left_));
      if (!more) return false;
      have_left_ = true;
      bucket_ = nullptr;
      bucket_pos_ = 0;
      if (!EncodeKey(current_left_, left_cols_, &key)) continue;
      auto it = build_.find(key);
      if (it == build_.end()) continue;
      bucket_ = &it->second;
    }
    while (bucket_pos_ < bucket_->size()) {
      const PlanTuple& rhs = (*bucket_)[bucket_pos_++];
      // Re-verify with the engine's comparison: hash equality is
      // necessary but (for numerics beyond 2^53) not sufficient.
      if (!KeysEqual(keys_, current_left_, rhs)) continue;
      ConcatTuples(current_left_, rhs, out);
      return true;
    }
  }
}

std::string HashJoinNode::Describe() const {
  return "HashJoin " + predicate_text_;
}

std::vector<const PlanNode*> HashJoinNode::Children() const {
  return {left_.get(), right_.get()};
}

IndexNestedLoopJoinNode::IndexNestedLoopJoinNode(
    PlanNodePtr outer, PlanNodePtr inner, IndexScanNode* probe,
    std::vector<std::pair<size_t, size_t>> keys, std::string predicate_text)
    : outer_(std::move(outer)),
      inner_(std::move(inner)),
      probe_(probe),
      keys_(std::move(keys)),
      predicate_text_(std::move(predicate_text)) {
  columns_ = outer_->columns();
  const auto& inner_cols = inner_->columns();
  columns_.insert(columns_.end(), inner_cols.begin(), inner_cols.end());
}

Status IndexNestedLoopJoinNode::Open() {
  have_outer_ = false;
  return outer_->Open();
}

Result<bool> IndexNestedLoopJoinNode::Next(PlanTuple* out) {
  for (;;) {
    if (!have_outer_) {
      BDBMS_ASSIGN_OR_RETURN(bool more, outer_->Next(&current_outer_));
      if (!more) return false;
      if (!probe_->BindEqualityKey(
              current_outer_.values[keys_.front().first])) {
        continue;
      }
      BDBMS_RETURN_IF_ERROR(inner_->Open());
      have_outer_ = true;
    }
    BDBMS_ASSIGN_OR_RETURN(bool more, inner_->Next(&inner_tuple_));
    if (!more) {
      have_outer_ = false;
      continue;
    }
    if (!KeysEqual(keys_, current_outer_, inner_tuple_)) continue;
    ConcatTuples(current_outer_, inner_tuple_, out);
    return true;
  }
}

std::string IndexNestedLoopJoinNode::Describe() const {
  return "IndexNestedLoopJoin " + predicate_text_;
}

std::vector<const PlanNode*> IndexNestedLoopJoinNode::Children() const {
  return {outer_.get(), inner_.get()};
}

SetOpNode::SetOpNode(SetOpKind kind, PlanNodePtr left, PlanNodePtr right)
    : kind_(kind), left_(std::move(left)), right_(std::move(right)) {
  columns_ = left_->columns();
}

Status SetOpNode::Open() {
  results_.clear();
  pos_ = 0;
  std::vector<PlanTuple> lhs, rhs;
  BDBMS_RETURN_IF_ERROR(DrainPlan(left_.get(), &lhs));
  BDBMS_RETURN_IF_ERROR(DrainPlan(right_.get(), &rhs));
  if (left_->columns().size() != right_->columns().size()) {
    return Status::InvalidArgument(
        "set operation requires same number of columns");
  }
  // Tuples match on values; annotations of merged tuples are unioned
  // (paper §3.4).
  std::map<std::string, std::vector<PlanTuple*>> rhs_index;
  for (PlanTuple& t : rhs) {
    rhs_index[TupleKey(t.values)].push_back(&t);
  }
  switch (kind_) {
    case SetOpKind::kIntersect:
      for (PlanTuple& t : lhs) {
        auto it = rhs_index.find(TupleKey(t.values));
        if (it == rhs_index.end()) continue;
        for (PlanTuple* match : it->second) {
          for (size_t c = 0; c < t.anns.size(); ++c) {
            MergeAnnotations(&t.anns[c], match->anns[c]);
          }
        }
        t.has_source = false;
        results_.push_back(std::move(t));
      }
      DeduplicateTuples(&results_);
      break;
    case SetOpKind::kExcept:
      for (PlanTuple& t : lhs) {
        if (rhs_index.count(TupleKey(t.values))) continue;
        results_.push_back(std::move(t));
      }
      DeduplicateTuples(&results_);
      break;
    case SetOpKind::kUnion:
      for (PlanTuple& t : lhs) results_.push_back(std::move(t));
      for (PlanTuple& t : rhs) results_.push_back(std::move(t));
      DeduplicateTuples(&results_);
      break;
    case SetOpKind::kNone:
      return Status::Internal("SetOpNode with kNone");
  }
  return Status::Ok();
}

Result<bool> SetOpNode::Next(PlanTuple* out) {
  if (pos_ >= results_.size()) return false;
  *out = std::move(results_[pos_++]);
  return true;
}

std::string SetOpNode::Describe() const {
  switch (kind_) {
    case SetOpKind::kUnion: return "Union";
    case SetOpKind::kIntersect: return "Intersect";
    case SetOpKind::kExcept: return "Except";
    case SetOpKind::kNone: break;
  }
  return "SetOp?";
}

std::vector<const PlanNode*> SetOpNode::Children() const {
  return {left_.get(), right_.get()};
}

}  // namespace bdbms
