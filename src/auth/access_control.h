#ifndef BDBMS_AUTH_ACCESS_CONTROL_H_
#define BDBMS_AUTH_ACCESS_CONTROL_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"

namespace bdbms {

// Table-level privileges of the classic GRANT/REVOKE model
// (Griffiths & Wade). Content-based approval (approval.h) works *with*
// this model, not instead of it (paper §6).
enum class Privilege : uint8_t {
  kSelect = 0,
  kInsert = 1,
  kUpdate = 2,
  kDelete = 3,
};

std::string_view PrivilegeName(Privilege p);

struct MvccState;

// Identity-based access control: users, groups, per-table grants.
// Superusers (the database owner, lab administrators) bypass grants.
class AccessControl {
 public:
  AccessControl() { superusers_.insert("admin"); }

  AccessControl(const AccessControl&) = delete;
  AccessControl& operator=(const AccessControl&) = delete;

  // Transactions: while a writer is installed, principal/grant mutations
  // push compensations that restore the prior membership state exactly.
  void set_mvcc(MvccState* mvcc) { mvcc_ = mvcc; }

  // --- principals ---------------------------------------------------------
  Status CreateUser(const std::string& user);
  bool HasUser(const std::string& user) const { return users_.count(user) > 0; }
  Status CreateGroup(const std::string& group);
  Status AddToGroup(const std::string& user, const std::string& group);
  bool IsMember(const std::string& user, const std::string& group) const;

  // True when `principal` denotes `spec` directly or via group membership.
  // Used to answer "may this user act as the APPROVED BY entity?".
  bool MatchesPrincipal(const std::string& principal,
                        const std::string& spec) const;

  void AddSuperuser(const std::string& user) { superusers_.insert(user); }
  bool IsSuperuser(const std::string& user) const {
    return superusers_.count(user) > 0;
  }

  // --- grants -------------------------------------------------------------
  // Grants may name a user or a group.
  Status Grant(const std::string& principal, const std::string& table,
               Privilege privilege);
  Status Revoke(const std::string& principal, const std::string& table,
                Privilege privilege);
  // Removes every grant on `table` (DROP TABLE), so a later table of the
  // same name starts with none.
  void DropGrantsOn(const std::string& table);

  // True if `user` holds `privilege` on `table` directly, through any of
  // its groups, or by being a superuser.
  bool IsGranted(const std::string& user, const std::string& table,
                 Privilege privilege) const;

  // Convenience: PermissionDenied unless IsGranted.
  Status Check(const std::string& user, const std::string& table,
               Privilege privilege) const;

  // --- state enumeration (checkpoint serialization) -----------------------
  const std::set<std::string>& users() const { return users_; }
  const std::set<std::string>& superusers() const { return superusers_; }
  const std::map<std::string, std::set<std::string>>& group_members() const {
    return groups_;
  }
  const std::map<std::pair<std::string, std::string>, std::set<Privilege>>&
  grants() const {
    return grants_;
  }

 private:
  std::set<std::string> users_;
  std::set<std::string> superusers_;
  std::map<std::string, std::set<std::string>> groups_;  // group -> members
  // (principal, table) -> privileges
  std::map<std::pair<std::string, std::string>, std::set<Privilege>> grants_;
  MvccState* mvcc_ = nullptr;
};

}  // namespace bdbms

#endif  // BDBMS_AUTH_ACCESS_CONTROL_H_
