// Toolkit layer 2 — reference-counted open objects (paper Section 2.3).
//
// An OpenObject stands for "the thing an open descriptor refers to". The default
// implementation is transparent: every operation continues the intercepted call
// downward unchanged, because by default the application-visible descriptor number
// IS the lower-level descriptor number. Agent-specific derived objects override the
// operations whose behaviour they change (e.g. a union directory synthesizes
// getdirentries from several member directories).
//
// Reference counting (paper: "reference counted open objects") is provided by
// std::shared_ptr: dup(), dup2(), and fork-inherited descriptors all share one
// object; the object dies when the last referencing descriptor is closed.
#ifndef SRC_TOOLKIT_OPEN_OBJECT_H_
#define SRC_TOOLKIT_OPEN_OBJECT_H_

#include <memory>

#include "src/toolkit/down_api.h"

namespace ia {

class OpenObject {
 public:
  // `real_fd` is the descriptor this object occupies at the lower level (-1 for
  // fully synthetic objects). A derived object that needs the name it was opened
  // by keeps it itself (TxnDirectory does); the default object keeps none, so
  // registering an open allocates only the object.
  explicit OpenObject(int real_fd) : real_fd_(real_fd) {}
  virtual ~OpenObject() = default;

  OpenObject(const OpenObject&) = delete;
  OpenObject& operator=(const OpenObject&) = delete;

  int real_fd() const { return real_fd_; }

  // --- descriptor operations; defaults are transparent pass-through ------------
  virtual SyscallStatus read(AgentCall& call, void* buf, int64_t cnt);
  virtual SyscallStatus write(AgentCall& call, const void* buf, int64_t cnt);
  virtual SyscallStatus lseek(AgentCall& call, Off offset, int whence);
  virtual SyscallStatus fstat(AgentCall& call, Stat* st);
  virtual SyscallStatus ftruncate(AgentCall& call, Off length);
  virtual SyscallStatus fchmod(AgentCall& call, Mode mode);
  virtual SyscallStatus fchown(AgentCall& call, Uid uid, Gid gid);
  virtual SyscallStatus flock(AgentCall& call, int operation);
  virtual SyscallStatus fsync(AgentCall& call);
  virtual SyscallStatus ioctl(AgentCall& call, uint64_t request, void* argp);
  virtual SyscallStatus fchdir(AgentCall& call);
  virtual SyscallStatus getdirentries(AgentCall& call, char* buf, int nbytes, int64_t* basep);

  // Called for the close(2) that drops a referencing descriptor. The default
  // passes the close down (freeing the lower-level descriptor slot).
  virtual SyscallStatus close(AgentCall& call);

 protected:
  int real_fd_;
};

using OpenObjectRef = std::shared_ptr<OpenObject>;

}  // namespace ia

#endif  // SRC_TOOLKIT_OPEN_OBJECT_H_
