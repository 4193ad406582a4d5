#include "plan/expr_eval.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "bio/alignment.h"
#include "index/spgist/regex.h"

namespace bdbms {

namespace {

using ColumnFn =
    std::function<Result<Value>(const std::string&, const std::string&)>;
using AnnFieldFn = std::function<Result<Value>(AnnField)>;
using AggregateFn = std::function<Result<Value>(const Expr&)>;

Result<Value> EvalGeneric(const Expr& e, const ColumnFn& col_fn,
                          const AnnFieldFn& ann_fn, const AggregateFn& agg_fn);

Result<Value> EvalBinary(const Expr& e, const ColumnFn& col_fn,
                         const AnnFieldFn& ann_fn, const AggregateFn& agg_fn) {
  // AND/OR short-circuit.
  if (e.bin_op == BinOp::kAnd || e.bin_op == BinOp::kOr) {
    BDBMS_ASSIGN_OR_RETURN(Value lhs,
                           EvalGeneric(*e.left, col_fn, ann_fn, agg_fn));
    BDBMS_ASSIGN_OR_RETURN(bool lb, Truthy(lhs));
    if (e.bin_op == BinOp::kAnd && !lb) return Value::Int(0);
    if (e.bin_op == BinOp::kOr && lb) return Value::Int(1);
    BDBMS_ASSIGN_OR_RETURN(Value rhs,
                           EvalGeneric(*e.right, col_fn, ann_fn, agg_fn));
    BDBMS_ASSIGN_OR_RETURN(bool rb, Truthy(rhs));
    return Value::Int(rb ? 1 : 0);
  }

  BDBMS_ASSIGN_OR_RETURN(Value lhs,
                         EvalGeneric(*e.left, col_fn, ann_fn, agg_fn));
  BDBMS_ASSIGN_OR_RETURN(Value rhs,
                         EvalGeneric(*e.right, col_fn, ann_fn, agg_fn));

  switch (e.bin_op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      // Comparisons with NULL are false (two-valued logic; IS NULL exists).
      if (lhs.is_null() || rhs.is_null()) return Value::Int(0);
      int c = lhs.Compare(rhs);
      bool r = false;
      switch (e.bin_op) {
        case BinOp::kEq: r = c == 0; break;
        case BinOp::kNe: r = c != 0; break;
        case BinOp::kLt: r = c < 0; break;
        case BinOp::kLe: r = c <= 0; break;
        case BinOp::kGt: r = c > 0; break;
        default: r = c >= 0; break;
      }
      return Value::Int(r ? 1 : 0);
    }
    case BinOp::kLike: {
      if (lhs.is_null() || rhs.is_null()) return Value::Int(0);
      if (!lhs.is_string() || !rhs.is_string()) {
        return Status::InvalidArgument("LIKE requires string operands");
      }
      return Value::Int(LikeMatch(lhs.as_string(), rhs.as_string()) ? 1 : 0);
    }
    case BinOp::kMatches: {
      if (lhs.is_null() || rhs.is_null()) return Value::Int(0);
      if (!lhs.is_string() || !rhs.is_string()) {
        return Status::InvalidArgument("MATCHES requires string operands");
      }
      // A literal pattern compiles once per statement. A malformed one is
      // never kept, so the compile error surfaces at the first row
      // evaluated, as a per-row compile would report it.
      if (!e.regex || e.right->kind != ExprKind::kLiteral) {
        BDBMS_ASSIGN_OR_RETURN(RegexProgram compiled,
                               RegexProgram::Compile(rhs.as_string()));
        e.regex = std::make_shared<const RegexProgram>(std::move(compiled));
      }
      return Value::Int(e.regex->FullMatch(lhs.as_string()) ? 1 : 0);
    }
    case BinOp::kAdd:
      if (lhs.is_string() && rhs.is_string()) {
        return Value::Text(lhs.as_string() + rhs.as_string());
      }
      [[fallthrough]];
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv: {
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      if (!lhs.is_numeric() || !rhs.is_numeric()) {
        return Status::InvalidArgument("arithmetic requires numeric operands");
      }
      bool both_int =
          lhs.type() == DataType::kInt && rhs.type() == DataType::kInt;
      if (e.bin_op == BinOp::kDiv) {
        double d = rhs.as_double();
        if (d == 0.0) return Status::InvalidArgument("division by zero");
        // INT64_MIN / -1 (and its %) overflow int64 — take the double
        // path for that one pair.
        if (both_int &&
            !(lhs.as_int() == INT64_MIN && rhs.as_int() == -1) &&
            lhs.as_int() % rhs.as_int() == 0) {
          return Value::Int(lhs.as_int() / rhs.as_int());
        }
        return Value::Double(lhs.as_double() / d);
      }
      if (both_int) {
        int64_t a = lhs.as_int(), b = rhs.as_int();
        switch (e.bin_op) {
          case BinOp::kAdd: return Value::Int(a + b);
          case BinOp::kSub: return Value::Int(a - b);
          default: return Value::Int(a * b);
        }
      }
      double a = lhs.as_double(), b = rhs.as_double();
      switch (e.bin_op) {
        case BinOp::kAdd: return Value::Double(a + b);
        case BinOp::kSub: return Value::Double(a - b);
        default: return Value::Double(a * b);
      }
    }
    default:
      return Status::Internal("unhandled binary operator");
  }
}

Result<Value> EvalGeneric(const Expr& e, const ColumnFn& col_fn,
                          const AnnFieldFn& ann_fn, const AggregateFn& agg_fn) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return e.literal;
    case ExprKind::kColumnRef:
      return col_fn(e.qualifier, e.column);
    case ExprKind::kAnnField:
      return ann_fn(e.ann_field);
    case ExprKind::kAggregate:
      return agg_fn(e);
    case ExprKind::kUnary: {
      BDBMS_ASSIGN_OR_RETURN(Value v,
                             EvalGeneric(*e.child, col_fn, ann_fn, agg_fn));
      if (e.un_op == UnOp::kIsNull || e.un_op == UnOp::kIsNotNull) {
        bool is_null = v.is_null();
        return Value::Int((e.un_op == UnOp::kIsNull) == is_null ? 1 : 0);
      }
      if (e.un_op == UnOp::kNot) {
        BDBMS_ASSIGN_OR_RETURN(bool b, Truthy(v));
        return Value::Int(b ? 0 : 1);
      }
      // Negation.
      if (v.is_null()) return Value::Null();
      if (v.type() == DataType::kInt) return Value::Int(-v.as_int());
      if (v.type() == DataType::kDouble) return Value::Double(-v.as_double());
      return Status::InvalidArgument("unary minus requires a number");
    }
    case ExprKind::kBinary:
      return EvalBinary(e, col_fn, ann_fn, agg_fn);
    case ExprKind::kFunction: {
      BDBMS_ASSIGN_OR_RETURN(Value lhs,
                             EvalGeneric(*e.left, col_fn, ann_fn, agg_fn));
      BDBMS_ASSIGN_OR_RETURN(Value rhs,
                             EvalGeneric(*e.right, col_fn, ann_fn, agg_fn));
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      if (!lhs.is_string() || !rhs.is_string()) {
        return Status::InvalidArgument(
            e.scalar_fn == ScalarFn::kAlign
                ? "ALIGN requires string operands"
                : "DISTANCE requires string operands");
      }
      if (e.scalar_fn == ScalarFn::kAlign) {
        return Value::Int(SmithWatermanScore(lhs.as_string(), rhs.as_string()));
      }
      return Value::Int(EditDistance(lhs.as_string(), rhs.as_string()));
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<Value> NoColumns(const std::string&, const std::string& name) {
  return Status::InvalidArgument("column " + name +
                                 " not allowed in this context");
}
Result<Value> NoAnnFields(AnnField) {
  return Status::InvalidArgument(
      "annotation attributes (VALUE/CATEGORY/AUTHOR) are only allowed in "
      "AWHERE/AHAVING/FILTER");
}
Result<Value> NoAggregates(const Expr&) {
  return Status::InvalidArgument("aggregate not allowed in this context");
}

Result<Value> EvalAggregate(const Expr& e,
                            const std::vector<BoundColumn>& columns,
                            const std::vector<const PlanTuple*>& group) {
  if (e.agg_fn == AggFn::kCountStar) {
    return Value::Int(static_cast<int64_t>(group.size()));
  }
  int64_t count = 0;
  double sum = 0;
  int64_t int_sum = 0;  // exact accumulator while the group is all-int
  bool all_int = true;
  std::optional<Value> min, max;
  for (const PlanTuple* t : group) {
    BDBMS_ASSIGN_OR_RETURN(Value v, EvalScalar(*e.child, columns, *t));
    if (v.is_null()) continue;
    ++count;
    if (v.is_numeric()) {
      sum += v.as_double();
      if (v.type() != DataType::kInt) {
        all_int = false;
      } else if (all_int &&
                 __builtin_add_overflow(int_sum, v.as_int(), &int_sum)) {
        all_int = false;  // overflowed int64: fall back to the double sum
      }
    } else if (e.agg_fn == AggFn::kSum || e.agg_fn == AggFn::kAvg) {
      return Status::InvalidArgument("SUM/AVG require numeric values");
    }
    if (!min.has_value() || v.Compare(*min) < 0) min = v;
    if (!max.has_value() || v.Compare(*max) > 0) max = v;
  }
  switch (e.agg_fn) {
    case AggFn::kCount:
      return Value::Int(count);
    case AggFn::kSum:
      if (count == 0) return Value::Null();
      return all_int ? Value::Int(int_sum) : Value::Double(sum);
    case AggFn::kAvg:
      if (count == 0) return Value::Null();
      return Value::Double(sum / static_cast<double>(count));
    case AggFn::kMin:
      return min.has_value() ? *min : Value::Null();
    case AggFn::kMax:
      return max.has_value() ? *max : Value::Null();
    default:
      return Status::Internal("unhandled aggregate");
  }
}

}  // namespace

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Greedy two-pointer wildcard match: on mismatch, rewind to one past the
  // last '%' and retry with the next text position. O(text * pattern)
  // worst case (the naive recursive version is exponential in the number
  // of '%'s).
  size_t t = 0, p = 0;
  size_t star = std::string_view::npos;  // position of the last '%'
  size_t star_t = 0;                     // text position it matched up to
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star = p++;
      star_t = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<bool> Truthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_numeric()) return v.as_double() != 0.0;
  return Status::InvalidArgument("condition did not evaluate to a boolean");
}

std::vector<BoundColumn> QualifiedColumns(const TableSchema& schema,
                                          const std::string& qualifier) {
  std::vector<BoundColumn> columns;
  columns.reserve(schema.num_columns());
  for (const ColumnDef& c : schema.columns()) {
    columns.push_back({c.name, qualifier});
  }
  return columns;
}

Result<size_t> BindColumn(const std::vector<BoundColumn>& columns,
                          const std::string& qualifier,
                          const std::string& name) {
  size_t found = columns.size();
  for (size_t i = 0; i < columns.size(); ++i) {
    const BoundColumn& c = columns[i];
    if (c.name != name) continue;
    if (!qualifier.empty() && c.qualifier != qualifier) continue;
    if (found != columns.size()) {
      return Status::InvalidArgument("ambiguous column " + name);
    }
    found = i;
  }
  if (found == columns.size()) {
    return Status::NotFound(
        "no column " + (qualifier.empty() ? name : qualifier + "." + name));
  }
  return found;
}

void MergeAnnotations(std::vector<ResultAnnotation>* into,
                      const std::vector<ResultAnnotation>& extra) {
  for (const ResultAnnotation& a : extra) {
    bool dup = false;
    for (const ResultAnnotation& b : *into) {
      if (b.SameAs(a)) {
        dup = true;
        break;
      }
    }
    if (!dup) into->push_back(a);
  }
}

std::string TupleKey(const Row& values) {
  std::string key;
  for (const Value& v : values) v.EncodeTo(&key);
  return key;
}

Result<Value> EvalScalar(const Expr& e, const std::vector<BoundColumn>& columns,
                         const PlanTuple& tuple) {
  return EvalGeneric(
      e,
      [&](const std::string& qual, const std::string& name) -> Result<Value> {
        BDBMS_ASSIGN_OR_RETURN(size_t idx, BindColumn(columns, qual, name));
        return tuple.values[idx];
      },
      NoAnnFields, NoAggregates);
}

Result<Value> EvalAnnExpr(const Expr& e, const ResultAnnotation& ann) {
  return EvalGeneric(e, NoColumns,
                     [&](AnnField f) -> Result<Value> {
                       switch (f) {
                         case AnnField::kValue:
                           return Value::Text(ann.body);
                         case AnnField::kCategory:
                           return Value::Text(ann.category);
                         case AnnField::kAuthor:
                           return Value::Text(ann.author);
                       }
                       return Status::Internal("bad annotation field");
                     },
                     NoAggregates);
}

Result<bool> TupleAnnMatch(const Expr& cond, const PlanTuple& tuple) {
  for (const auto& per_col : tuple.anns) {
    for (const ResultAnnotation& a : per_col) {
      BDBMS_ASSIGN_OR_RETURN(Value v, EvalAnnExpr(cond, a));
      BDBMS_ASSIGN_OR_RETURN(bool b, Truthy(v));
      if (b) return true;
    }
  }
  return false;
}

Result<Value> EvalGroupExpr(const Expr& e,
                            const std::vector<BoundColumn>& columns,
                            const std::vector<const PlanTuple*>& group) {
  return EvalGeneric(
      e,
      [&](const std::string& qual, const std::string& name) -> Result<Value> {
        if (group.empty()) return Value::Null();
        BDBMS_ASSIGN_OR_RETURN(size_t idx, BindColumn(columns, qual, name));
        return group[0]->values[idx];
      },
      NoAnnFields,
      [&](const Expr& agg) -> Result<Value> {
        return EvalAggregate(agg, columns, group);
      });
}

}  // namespace bdbms
