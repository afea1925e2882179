// Toolkit layer 3 — secondary objects: the open directory object (paper §2.3).
//
// "Just as the getpn() method encapsulated pathname resolution, the
// next_direntry() method encapsulates the iteration of individual directory
// entries implicit in reading the contents of a directory."
//
// The default Directory streams entries from the lower level; getdirentries() is
// implemented once, in terms of next_direntry(), so derived directories (union
// directories, filtered views, ...) override only the iterator.
#ifndef SRC_TOOLKIT_DIRECTORY_H_
#define SRC_TOOLKIT_DIRECTORY_H_

#include <deque>

#include "src/toolkit/open_object.h"

namespace ia {

class Directory : public OpenObject {
 public:
  explicit Directory(int real_fd) : OpenObject(real_fd) {}

  // Produces the next logical entry: 1 = entry filled, 0 = end of directory,
  // negative errno on error. The default streams from the lower-level directory.
  virtual int next_direntry(AgentCall& call, Dirent* out);

  // Resets iteration to the beginning (lseek(fd, 0, SEEK_SET) semantics).
  virtual int rewind(AgentCall& call);

  // Implemented once over next_direntry(); not usually overridden.
  SyscallStatus getdirentries(AgentCall& call, char* buf, int nbytes, int64_t* basep) final;
  SyscallStatus lseek(AgentCall& call, Off offset, int whence) override;

 protected:
  int64_t logical_offset_ = 0;  // entries handed to the application so far

 private:
  std::deque<Dirent> buffered_;
  bool lower_eof_ = false;
  Dirent pushback_;           // entry produced by next_direntry() that did not fit
  bool has_pushback_ = false;
};

}  // namespace ia

#endif  // SRC_TOOLKIT_DIRECTORY_H_
