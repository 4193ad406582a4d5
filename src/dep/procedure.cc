#include "dep/procedure.h"

namespace bdbms {

Status ProcedureRegistry::Register(ProcedureInfo info) {
  if (info.name.empty()) {
    return Status::InvalidArgument("procedure name must not be empty");
  }
  if (info.executable && !info.fn) {
    return Status::InvalidArgument("executable procedure " + info.name +
                                   " requires an implementation");
  }
  if (!info.executable && info.fn) {
    return Status::InvalidArgument("non-executable procedure " + info.name +
                                   " must not carry an implementation");
  }
  if (procs_.count(info.name)) {
    return Status::AlreadyExists("procedure " + info.name +
                                 " already registered");
  }
  procs_[info.name] = std::move(info);
  return Status::Ok();
}

Result<const ProcedureInfo*> ProcedureRegistry::Get(
    const std::string& name) const {
  auto it = procs_.find(name);
  if (it == procs_.end()) {
    return Status::NotFound("no procedure " + name);
  }
  return &it->second;
}

Status ProcedureRegistry::UpdateImplementation(const std::string& name,
                                               ProcedureInfo::Fn fn) {
  auto it = procs_.find(name);
  if (it == procs_.end()) {
    return Status::NotFound("no procedure " + name);
  }
  if (!it->second.executable) {
    return Status::FailedPrecondition("procedure " + name +
                                      " is not executable");
  }
  if (!fn) {
    return Status::InvalidArgument("new implementation must not be null");
  }
  it->second.fn = std::move(fn);
  ++it->second.version;
  return Status::Ok();
}

}  // namespace bdbms
