#ifndef BDBMS_CORE_SESSION_H_
#define BDBMS_CORE_SESSION_H_

#include <string>
#include <string_view>

#include "core/database.h"

namespace bdbms {

// One client's connection to the engine: a user identity plus transaction
// ownership. Statements issued through a Session run as its user, and a
// BEGIN executed here binds the open transaction to this session. Other
// sessions keep running against their own MVCC snapshots; only a write to
// a row this transaction already wrote fails (first updater wins), and
// only a statement that escalates to the exclusive gate waits for it to
// end (docs/transactions.md).
//
// Destroying a session with an open transaction rolls the transaction
// back — which also releases the transaction's MVCC snapshot, so a
// dropped network connection can never leave the engine locked, pin
// version garbage collection, or end up half-committed. A session must
// be used from one thread at a time, though not necessarily the *same*
// thread: the network server's worker pool hands each connection's
// statements to whichever worker is free, serialized per connection.
class Session {
 public:
  Session(Database* db, std::string user)
      : db_(db), user_(std::move(user)) {}

  ~Session() {
    if (db_->InTransaction(this)) {
      (void)db_->Execute("ROLLBACK", user_, this);
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  Result<QueryResult> Execute(std::string_view sql) {
    return db_->Execute(sql, user_, this);
  }

  bool InTransaction() const { return db_->InTransaction(this); }

  const std::string& user() const { return user_; }

 private:
  Database* db_;
  std::string user_;
};

}  // namespace bdbms

#endif  // BDBMS_CORE_SESSION_H_
