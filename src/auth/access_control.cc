#include "auth/access_control.h"

#include "txn/mvcc.h"

namespace bdbms {

std::string_view PrivilegeName(Privilege p) {
  switch (p) {
    case Privilege::kSelect:
      return "SELECT";
    case Privilege::kInsert:
      return "INSERT";
    case Privilege::kUpdate:
      return "UPDATE";
    case Privilege::kDelete:
      return "DELETE";
  }
  return "UNKNOWN";
}

Status AccessControl::CreateUser(const std::string& user) {
  if (user.empty()) return Status::InvalidArgument("empty user name");
  if (!users_.insert(user).second) {
    return Status::AlreadyExists("user " + user + " already exists");
  }
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, user] { users_.erase(user); });
  }
  return Status::Ok();
}

Status AccessControl::CreateGroup(const std::string& group) {
  if (group.empty()) return Status::InvalidArgument("empty group name");
  if (groups_.count(group)) {
    return Status::AlreadyExists("group " + group + " already exists");
  }
  groups_[group] = {};
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, group] { groups_.erase(group); });
  }
  return Status::Ok();
}

Status AccessControl::AddToGroup(const std::string& user,
                                 const std::string& group) {
  auto it = groups_.find(group);
  if (it == groups_.end()) return Status::NotFound("no group " + group);
  bool inserted = it->second.insert(user).second;
  MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr;
  if (inserted && w != nullptr) {
    w->undo.push_back([this, user, group] {
      auto g = groups_.find(group);
      if (g != groups_.end()) g->second.erase(user);
    });
  }
  return Status::Ok();
}

bool AccessControl::IsMember(const std::string& user,
                             const std::string& group) const {
  auto it = groups_.find(group);
  return it != groups_.end() && it->second.count(user) > 0;
}

bool AccessControl::MatchesPrincipal(const std::string& principal,
                                     const std::string& spec) const {
  return principal == spec || IsMember(principal, spec);
}

Status AccessControl::Grant(const std::string& principal,
                            const std::string& table, Privilege privilege) {
  bool inserted = grants_[{principal, table}].insert(privilege).second;
  MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr;
  if (inserted && w != nullptr) {
    w->undo.push_back([this, principal, table, privilege] {
      auto it = grants_.find({principal, table});
      if (it == grants_.end()) return;
      it->second.erase(privilege);
      if (it->second.empty()) grants_.erase(it);
    });
  }
  return Status::Ok();
}

Status AccessControl::Revoke(const std::string& principal,
                             const std::string& table, Privilege privilege) {
  auto it = grants_.find({principal, table});
  if (it == grants_.end() || it->second.erase(privilege) == 0) {
    return Status::NotFound("no such grant to revoke");
  }
  // A principal left with no privilege on the table has no entry: the
  // checkpoint would otherwise persist an empty one that no reload
  // recreates. The compensation brings the entry back.
  if (it->second.empty()) grants_.erase(it);
  if (MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr) {
    w->undo.push_back([this, principal, table, privilege] {
      grants_[{principal, table}].insert(privilege);
    });
  }
  return Status::Ok();
}

void AccessControl::DropGrantsOn(const std::string& table) {
  std::vector<std::pair<std::pair<std::string, std::string>,
                        std::set<Privilege>>>
      dropped;
  for (auto it = grants_.begin(); it != grants_.end();) {
    if (it->first.second == table) {
      dropped.emplace_back(it->first, std::move(it->second));
      it = grants_.erase(it);
    } else {
      ++it;
    }
  }
  MvccWriter* w = mvcc_ ? mvcc_->writer : nullptr;
  if (!dropped.empty() && w != nullptr) {
    w->undo.push_back([this, dropped] {
      for (const auto& [key, privileges] : dropped) grants_[key] = privileges;
    });
  }
}

bool AccessControl::IsGranted(const std::string& user,
                              const std::string& table,
                              Privilege privilege) const {
  if (IsSuperuser(user)) return true;
  auto direct = grants_.find({user, table});
  if (direct != grants_.end() && direct->second.count(privilege)) return true;
  for (const auto& [group, members] : groups_) {
    if (!members.count(user)) continue;
    auto via_group = grants_.find({group, table});
    if (via_group != grants_.end() && via_group->second.count(privilege)) {
      return true;
    }
  }
  return false;
}

Status AccessControl::Check(const std::string& user, const std::string& table,
                            Privilege privilege) const {
  if (!IsGranted(user, table, privilege)) {
    return Status::PermissionDenied(
        user + " lacks " + std::string(PrivilegeName(privilege)) + " on " +
        table);
  }
  return Status::Ok();
}

}  // namespace bdbms
