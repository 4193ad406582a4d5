#ifndef BDBMS_SQL_AST_H_
#define BDBMS_SQL_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "catalog/schema.h"
#include "common/value.h"
#include "dep/rule.h"

namespace bdbms {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

class RegexProgram;
struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kLiteral,    // 42, 'text', NULL
  kColumnRef,  // col or tbl.col
  kBinary,     // comparisons, AND/OR, arithmetic, LIKE, MATCHES
  kUnary,      // NOT, -, IS NULL, IS NOT NULL
  kAggregate,  // COUNT/SUM/AVG/MIN/MAX
  kAnnField,   // VALUE / CATEGORY / AUTHOR inside AWHERE/AHAVING/FILTER
  kFunction,   // ALIGN(seq, 'ACGT'), DISTANCE(seq, 'ACGT')
};

enum class BinOp {
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kAdd, kSub, kMul, kDiv,
  kLike,
  kMatches,  // full-string regular-expression match
};

enum class UnOp { kNot, kNeg, kIsNull, kIsNotNull };

enum class AggFn { kCountStar, kCount, kSum, kAvg, kMin, kMax };

// Two-argument sequence scalar functions (docs/sql-dialect.md):
//   ALIGN(a, b)    — Smith–Waterman local alignment score (INT)
//   DISTANCE(a, b) — Levenshtein edit distance (INT)
enum class ScalarFn { kAlign, kDistance };

// Annotation attributes addressable in annotation conditions:
//   VALUE     — the annotation's XML body text
//   CATEGORY  — the annotation table it came from
//   AUTHOR    — who added it
enum class AnnField { kValue, kCategory, kAuthor };

struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  Value literal;                   // kLiteral
  std::string qualifier;           // kColumnRef: optional table/alias
  std::string column;              // kColumnRef
  BinOp bin_op = BinOp::kEq;       // kBinary
  UnOp un_op = UnOp::kNot;         // kUnary
  AggFn agg_fn = AggFn::kCount;    // kAggregate
  AnnField ann_field = AnnField::kValue;  // kAnnField
  ScalarFn scalar_fn = ScalarFn::kAlign;  // kFunction

  ExprPtr left;   // kBinary / kFunction first argument
  ExprPtr right;  // kBinary / kFunction second argument
  ExprPtr child;  // kUnary / kAggregate argument (null for COUNT(*))

  // MATCHES: the compiled pattern. A literal one is compiled at the first
  // evaluation and reused for every later row of the statement.
  mutable std::shared_ptr<const RegexProgram> regex;

  bool ContainsAggregate() const {
    if (kind == ExprKind::kAggregate) return true;
    if (left && left->ContainsAggregate()) return true;
    if (right && right->ContainsAggregate()) return true;
    if (child && child->ContainsAggregate()) return true;
    return false;
  }
};

// ---------------------------------------------------------------------------
// SELECT (A-SQL Figure 7)
// ---------------------------------------------------------------------------

// One projected item: expression, optional alias, optional PROMOTE list —
// columns whose annotations are copied onto this output column.
struct SelectItem {
  ExprPtr expr;
  std::string alias;
  std::vector<std::string> promote_columns;
};

// FROM entry: table [alias] [ANNOTATION(a, b, ...)] — the ANNOTATION
// operator selects which annotation tables participate; ANNOTATION(ALL)
// propagates every category.
struct TableRef {
  std::string table;
  std::string alias;
  std::vector<std::string> annotation_tables;
  bool all_annotations = false;
};

enum class SetOpKind { kNone, kUnion, kIntersect, kExcept };

// One ORDER BY key: a bare (possibly qualified) column name, or — for
// expression keys like DISTANCE(seq, 'ACGT') — the expression itself.
struct OrderKey {
  std::string column;  // nonempty iff the key is a bare column reference
  ExprPtr expr;        // set iff the key is an expression
  bool descending = false;
};

struct SelectStmt {
  bool distinct = false;
  bool star = false;               // SELECT *
  std::vector<SelectItem> items;   // empty iff star
  std::vector<TableRef> from;
  ExprPtr where;
  ExprPtr awhere;                  // annotation condition on input tuples
  std::vector<std::string> group_by;
  ExprPtr having;
  ExprPtr ahaving;                 // annotation condition on groups
  ExprPtr filter;                  // annotation filter (tuples all pass)
  std::vector<OrderKey> order_by;
  std::optional<uint64_t> limit;
  SetOpKind set_op = SetOpKind::kNone;
  std::unique_ptr<SelectStmt> set_rhs;
};

// ---------------------------------------------------------------------------
// DML / DDL
// ---------------------------------------------------------------------------

struct CreateTableStmt {
  TableSchema schema;
};
struct DropTableStmt {
  std::string table;
};
struct InsertStmt {
  std::string table;
  std::vector<std::vector<ExprPtr>> rows;
};
struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;
};
struct DeleteStmt {
  std::string table;
  ExprPtr where;
};

// CREATE INDEX name ON table (col [, col ...]) — registers a B+-tree
// secondary index (composite keys in column-list order) the planner may
// choose for equality/range/LIKE-prefix predicates.
// CREATE SEQUENCE INDEX name ON table (col) [USING SPGIST] — registers an
// SP-GiST trie over one sequence/text column for prefix/pattern probes.
struct CreateIndexStmt {
  std::string index;
  std::string table;
  std::vector<std::string> columns;
  bool spgist = false;
};
// DROP INDEX name ON table.
struct DropIndexStmt {
  std::string index;
  std::string table;
};

struct Statement;  // forward; ExplainStmt and AddAnnotationStmt nest one

// EXPLAIN <statement> — prints the physical plan without executing it.
struct ExplainStmt {
  std::unique_ptr<Statement> target;
};

// ANALYZE [table] — collects row-count / per-column NDV, min/max and
// histogram statistics into the catalog for the cost-based planner. With
// no table, every table in the catalog is analyzed.
struct AnalyzeStmt {
  std::string table;  // empty = all tables
};

// CHECKPOINT — snapshots the full engine state to the durable store and
// truncates the statement WAL (docs/durability.md). A no-op on in-memory
// databases, so durable and in-memory runs of one script stay comparable.
struct CheckpointStmt {};

// BEGIN [TRANSACTION] / COMMIT / ROLLBACK — explicit multi-statement
// transaction control (docs/transactions.md). Handled by the Database
// facade, not the executor: transaction state lives above statement
// execution.
struct TxnStmt {
  enum class Kind { kBegin, kCommit, kRollback };
  Kind kind = Kind::kBegin;
};

// ---------------------------------------------------------------------------
// A-SQL annotation commands (Figures 4 and 6)
// ---------------------------------------------------------------------------

struct CreateAnnTableStmt {
  std::string table;
  std::string ann_table;
  bool provenance = false;  // CREATE ANNOTATION TABLE ... AS PROVENANCE
};
struct DropAnnTableStmt {
  std::string table;
  std::string ann_table;
};

// ADD ANNOTATION TO t.a1 [, t.a2 ...] VALUE '<xml>' ON <statement>.
// The nested statement may be a SELECT (annotate existing data) or an
// INSERT/UPDATE/DELETE (annotate the data the operation touches).
struct AddAnnotationStmt {
  std::vector<std::pair<std::string, std::string>> targets;  // (table, ann)
  std::string value;  // XML body
  std::unique_ptr<Statement> on;
};

// ARCHIVE/RESTORE ANNOTATION FROM t.a1 [, ...] [BETWEEN t1 AND t2]
// ON (SELECT ...).
struct ArchiveAnnotationStmt {
  bool restore = false;
  std::vector<std::pair<std::string, std::string>> targets;
  std::optional<uint64_t> time_begin;
  std::optional<uint64_t> time_end;
  std::unique_ptr<SelectStmt> on;
};

// ---------------------------------------------------------------------------
// Authorization (classic + Figure 11)
// ---------------------------------------------------------------------------

struct GrantStmt {
  bool revoke = false;
  std::string privilege;  // SELECT | INSERT | UPDATE | DELETE
  std::string table;
  std::string principal;
};
struct CreateUserStmt {
  std::string name;
  bool is_group = false;
};
struct AddUserToGroupStmt {
  std::string user;
  std::string group;
};
struct StartApprovalStmt {
  std::string table;
  std::vector<std::string> columns;
  std::string approver;
};
struct StopApprovalStmt {
  std::string table;
  std::vector<std::string> columns;
};
struct ApproveStmt {
  bool disapprove = false;
  uint64_t op_id = 0;
};
struct ShowPendingStmt {
  std::string table;  // empty = all tables
};

// ---------------------------------------------------------------------------
// Dependency DDL (paper §5)
// ---------------------------------------------------------------------------

// CREATE DEPENDENCY name FROM T.c1 [, T.c2 ...] TO U.d USING proc
//   [JOIN ON T.k = U.k]
struct CreateDependencyStmt {
  DependencyRule rule;
};
struct DropDependencyStmt {
  std::string name;
};

// ---------------------------------------------------------------------------

using StatementVariant =
    std::variant<SelectStmt, CreateTableStmt, DropTableStmt, InsertStmt,
                 UpdateStmt, DeleteStmt, CreateIndexStmt, DropIndexStmt,
                 ExplainStmt, AnalyzeStmt, CheckpointStmt, TxnStmt,
                 CreateAnnTableStmt,
                 DropAnnTableStmt, AddAnnotationStmt, ArchiveAnnotationStmt,
                 GrantStmt, CreateUserStmt, AddUserToGroupStmt,
                 StartApprovalStmt, StopApprovalStmt, ApproveStmt,
                 ShowPendingStmt, CreateDependencyStmt, DropDependencyStmt>;

struct Statement {
  StatementVariant node;
};

// True for statements whose successful execution changes engine state —
// the set the durable Database journals in its write-ahead log. SELECT,
// EXPLAIN and SHOW PENDING only read; CHECKPOINT manages the log itself
// and must never be replayed from it; BEGIN/COMMIT/ROLLBACK are journaled
// as their own framing records, not as statements.
inline bool StatementMutatesState(const Statement& stmt) {
  return !(std::holds_alternative<SelectStmt>(stmt.node) ||
           std::holds_alternative<ExplainStmt>(stmt.node) ||
           std::holds_alternative<ShowPendingStmt>(stmt.node) ||
           std::holds_alternative<CheckpointStmt>(stmt.node) ||
           std::holds_alternative<TxnStmt>(stmt.node));
}

}  // namespace bdbms

#endif  // BDBMS_SQL_AST_H_
