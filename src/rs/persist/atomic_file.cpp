#include "rs/persist/atomic_file.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "rs/fault/fault.hpp"

namespace rs::persist {

namespace {

Status WriteAttempt(const std::string& path, const std::string& tmp,
                    const std::string& bytes, Durability durability) {
  // Direct Hit() calls rather than RS_FAULT_POINT: the macro would return
  // out of the retry loop's caller; here the injected error must feed the
  // retry logic exactly like a real short write / failed rename.
  RS_RETURN_NOT_OK(rs::fault::Hit("persist.write"));
  // fsync *before* rename: on ext4/xfs the rename can hit the journal ahead
  // of the data blocks, and a power cut then exposes a complete-looking
  // file of zeros at `path`.
  RS_RETURN_NOT_OK(WriteFileSynced(tmp, bytes, durability));
  RS_RETURN_NOT_OK(rs::fault::Hit("persist.rename"));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Errno("AtomicWriteFile: rename " + tmp + " -> " + path);
  }
  // Directory fsync makes the rename itself durable (the new entry is
  // metadata of the *directory*, not the file).
  if (durability == Durability::kFsync) {
    RS_RETURN_NOT_OK(FsyncParentDir(path));
  }
  return Status::OK();
}

}  // namespace

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

Status WriteFileSynced(const std::string& path, std::string_view bytes,
                       Durability durability) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("cannot open " + path);
  Status written;
  while (written.ok() && !bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n >= 0) {
      bytes.remove_prefix(static_cast<std::size_t>(n));
    } else if (errno != EINTR) {
      written = Errno("write " + path);
    }
  }
  if (written.ok() && durability == Durability::kFsync && ::fsync(fd) != 0) {
    written = Errno("fsync " + path);
  }
  if (::close(fd) != 0 && written.ok()) written = Errno("close " + path);
  return written;
}

std::string ParentDirectory(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status FsyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("FsyncPath: cannot open " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("FsyncPath: fsync " + path);
  return Status::OK();
}

Status FsyncParentDir(const std::string& path) {
  const std::string dir = ParentDirectory(path);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("FsyncParentDir: cannot open directory " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("FsyncParentDir: fsync " + dir);
  return Status::OK();
}

std::size_t RemoveStaleTempFiles(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  std::size_t removed = 0;
  while (const dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    constexpr const char kSuffix[] = ".tmp";
    constexpr std::size_t kSuffixLen = sizeof(kSuffix) - 1;
    if (name.size() <= kSuffixLen ||
        name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
      continue;
    }
    if (std::remove((dir + "/" + name).c_str()) == 0) ++removed;
  }
  ::closedir(d);
  return removed;
}

Status AtomicWriteFile(const std::string& path, const std::string& bytes,
                       const AtomicWriteOptions& options) {
  const std::string tmp = path + ".tmp";
  Status last = Status::IoError("AtomicWriteFile: max_attempts < 1");
  const int attempts = options.max_attempts < 1 ? 1 : options.max_attempts;
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    last = WriteAttempt(path, tmp, bytes, options.durability);
    if (last.ok()) return last;
  }
  // Best-effort cleanup; the previous snapshot at `path` is still intact.
  std::remove(tmp.c_str());
  std::ostringstream msg;
  msg << last.message() << " (after " << attempts << " attempts)";
  return Status(last.code(), msg.str());
}

}  // namespace rs::persist
