#include "plan/cost_model.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "index/key_codec.h"

namespace bdbms {

namespace {

double Clamp01(double s) { return std::clamp(s, 0.0, 1.0); }

// Fraction of the analyzed string range [min, max] below `v`, from their
// order-preserving index keys (key_codec.h). The bytes the encoded min
// and max share carry no information and are skipped; the next
// kStringDigits bytes of each key are read as digits in base
// (hi - lo + 1), where [lo, hi] is the byte range the digits of min and
// max span. A byte of `v` outside [lo, hi] is clamped into it and a key
// that ends early is padded with lo, so both bounds of one range are
// read on the same scale. Digit-only ids such as 'G001000' then
// interpolate in base 10, not 256.
std::optional<double> StringFractionBelow(const Value& min, const Value& max,
                                          const Value& v) {
  constexpr size_t kStringDigits = 8;
  if (v.Compare(min) <= 0) return 0.0;
  if (v.Compare(max) >= 0) return 1.0;
  // A string key ends in a two-byte terminator that is not data.
  auto encode = [](const Value& x) {
    std::string key = EncodeIndexKey(x);
    key.resize(key.size() - 2);
    return key;
  };
  const std::string kmin = encode(min), kmax = encode(max);
  size_t skip = 0;
  while (skip < kmin.size() && skip < kmax.size() &&
         kmin[skip] == kmax[skip]) {
    ++skip;
  }
  int lo = 255, hi = 0;
  for (const std::string* key : {&kmin, &kmax}) {
    for (size_t i = skip; i < key->size() && i < skip + kStringDigits; ++i) {
      int b = static_cast<unsigned char>((*key)[i]);
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
  }
  if (hi < lo) return std::nullopt;
  double base = hi - lo + 1;
  auto position = [&](const std::string& key) {
    double pos = 0.0, scale = 1.0;
    for (size_t i = skip; i < skip + kStringDigits; ++i) {
      scale /= base;
      if (i < key.size()) {
        int b = std::clamp<int>(static_cast<unsigned char>(key[i]), lo, hi);
        pos += (b - lo) * scale;
      }
    }
    return pos;
  };
  double p_min = position(kmin), p_max = position(kmax);
  if (p_max <= p_min) return std::nullopt;
  return Clamp01((position(encode(v)) - p_min) / (p_max - p_min));
}

// Fraction of non-null values below `v`: the histogram for numeric
// columns, else linear interpolation between the analyzed extremes
// (numeric, or string via their index keys).
std::optional<double> FractionBelow(const ColumnStats& stats,
                                    const Value& v) {
  if (v.is_numeric() && stats.histogram.has_value() &&
      stats.histogram->total > 0) {
    return stats.histogram->FractionBelow(v.as_double());
  }
  if (!stats.min.has_value() || !stats.max.has_value()) return std::nullopt;
  if (v.is_string() && stats.min->is_string() && stats.max->is_string()) {
    return StringFractionBelow(*stats.min, *stats.max, v);
  }
  if (!v.is_numeric() || !stats.min->is_numeric() ||
      !stats.max->is_numeric()) {
    return std::nullopt;
  }
  double lo = stats.min->as_double(), hi = stats.max->as_double();
  double x = v.as_double();
  if (x <= lo) return 0.0;
  if (x >= hi) return 1.0;
  return hi > lo ? (x - lo) / (hi - lo) : 1.0;
}

// `column <op> literal` with the column on the left (callers flip).
double ComparisonSelectivity(BinOp op, const ColumnStats* stats,
                             const Value& literal) {
  if (literal.is_null()) return 0.0;  // comparisons with NULL are false
  switch (op) {
    case BinOp::kEq:
      return EqSelectivity(stats, literal);
    case BinOp::kNe:
      return Clamp01(1.0 - EqSelectivity(stats, literal));
    case BinOp::kLt:
    case BinOp::kLe: {
      IndexBound hi{literal, op == BinOp::kLe};
      return RangeSelectivity(stats, std::nullopt, hi);
    }
    case BinOp::kGt:
    case BinOp::kGe: {
      IndexBound lo{literal, op == BinOp::kGe};
      return RangeSelectivity(stats, lo, std::nullopt);
    }
    default:
      return cost::kDefaultSel;
  }
}

BinOp FlipOp(BinOp op) {
  switch (op) {
    case BinOp::kLt: return BinOp::kGt;
    case BinOp::kLe: return BinOp::kGe;
    case BinOp::kGt: return BinOp::kLt;
    case BinOp::kGe: return BinOp::kLe;
    default: return op;
  }
}

}  // namespace

double IndexProbeCost(double rows) {
  return std::log2(std::max(rows, 1.0) + 1.0);
}

double SeqScanCost(double rows) { return rows * cost::kSeqTuple; }

double IndexScanCost(double table_rows, double matching_rows) {
  return IndexProbeCost(table_rows) + matching_rows * cost::kRandomFetch;
}

double JoinKeySelectivity(const ColumnStats* key_stats) {
  if (key_stats == nullptr || key_stats->ndv == 0) return cost::kDefaultEq;
  return Clamp01(1.0 / static_cast<double>(key_stats->ndv));
}

double ClampRows(double rows, double input_rows) {
  if (input_rows <= 0.0) return 0.0;
  return std::max(rows, 1.0);
}

double EqSelectivity(const ColumnStats* stats, const Value& probe) {
  if (stats == nullptr || stats->ndv == 0) return cost::kDefaultEq;
  if (stats->min.has_value() && probe.Compare(*stats->min) < 0) return 0.0;
  if (stats->max.has_value() && probe.Compare(*stats->max) > 0) return 0.0;
  return Clamp01(1.0 / static_cast<double>(stats->ndv));
}

double RangeSelectivity(const ColumnStats* stats,
                        const std::optional<IndexBound>& lo,
                        const std::optional<IndexBound>& hi) {
  double below_hi = 1.0, below_lo = 0.0;
  bool interpolated = false;
  if (stats != nullptr) {
    if (hi.has_value()) {
      if (auto f = FractionBelow(*stats, hi->value)) {
        below_hi = *f;
        interpolated = true;
      }
    }
    if (lo.has_value()) {
      if (auto f = FractionBelow(*stats, lo->value)) {
        below_lo = *f;
        interpolated = true;
      }
    }
  }
  if (interpolated) return Clamp01(below_hi - below_lo);
  // No usable statistics: the default per bounded side.
  double s = 1.0;
  if (lo.has_value()) s *= cost::kDefaultRange;
  if (hi.has_value()) s *= cost::kDefaultRange;
  return s;
}

double EstimateConjunctSelectivity(const Expr& e,
                                   const StatsResolver& resolver) {
  if (e.kind == ExprKind::kBinary) {
    switch (e.bin_op) {
      case BinOp::kAnd:
        return Clamp01(EstimateConjunctSelectivity(*e.left, resolver) *
                       EstimateConjunctSelectivity(*e.right, resolver));
      case BinOp::kOr: {
        double a = EstimateConjunctSelectivity(*e.left, resolver);
        double b = EstimateConjunctSelectivity(*e.right, resolver);
        return Clamp01(a + b - a * b);
      }
      case BinOp::kLike:
        return cost::kDefaultLike;
      case BinOp::kEq:
      case BinOp::kNe:
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe: {
        const Expr* col = e.left.get();
        const Expr* lit = e.right.get();
        BinOp op = e.bin_op;
        if (col->kind != ExprKind::kColumnRef) {
          std::swap(col, lit);
          op = FlipOp(op);
        }
        if (col->kind != ExprKind::kColumnRef ||
            lit->kind != ExprKind::kLiteral) {
          return cost::kDefaultSel;
        }
        return ComparisonSelectivity(op, resolver(*col), lit->literal);
      }
      default:
        return cost::kDefaultSel;
    }
  }
  if (e.kind == ExprKind::kUnary) {
    switch (e.un_op) {
      case UnOp::kNot:
        return Clamp01(1.0 -
                       EstimateConjunctSelectivity(*e.child, resolver));
      case UnOp::kIsNull:
      case UnOp::kIsNotNull: {
        const ColumnStats* stats =
            e.child->kind == ExprKind::kColumnRef ? resolver(*e.child)
                                                  : nullptr;
        double null_frac = cost::kDefaultEq;
        if (stats != nullptr && stats->non_null + stats->null_count > 0) {
          null_frac = static_cast<double>(stats->null_count) /
                      static_cast<double>(stats->non_null + stats->null_count);
        }
        return e.un_op == UnOp::kIsNull ? Clamp01(null_frac)
                                        : Clamp01(1.0 - null_frac);
      }
      default:
        return cost::kDefaultSel;
    }
  }
  return cost::kDefaultSel;
}

}  // namespace bdbms
