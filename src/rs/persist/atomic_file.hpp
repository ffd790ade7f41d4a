/// \file atomic_file.hpp
/// \brief Crash-safe snapshot file replacement: write-temp-then-rename,
///        fsynced so the commit survives power loss, not just process death.
///
/// A snapshot overwritten in place can be torn by a crash or a full disk,
/// leaving *no* loadable state. AtomicWriteFile instead writes the bytes to
/// `path + ".tmp"`, fsyncs the temp file, renames over `path`, and fsyncs
/// the parent directory — the rename is the commit point, and the two
/// fsyncs are what make it a *durable* commit point: without the first, the
/// rename can land before the data blocks and a power cut exposes a
/// complete-looking file of garbage; without the second, the rename itself
/// can evaporate. Failed attempts are retried (the persist.write /
/// persist.rename fault sites inject exactly these failures in the chaos
/// suite) and the temp file is cleaned up on the way out; the previous
/// snapshot at `path` is untouched until the rename succeeds.
///
/// A crash between temp-write and rename strands a `.tmp` file; recovery
/// scans (rs::wal journal open, or any caller managing a state directory)
/// call RemoveStaleTempFiles to sweep those orphans.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "rs/common/status.hpp"

namespace rs::persist {

/// How hard AtomicWriteFile pushes the commit toward stable storage.
enum class Durability {
  /// fsync the temp file before rename and the parent directory after:
  /// the commit survives kill -9 *and* power loss. The default.
  kFsync,
  /// Skip both fsyncs: the commit survives process death (the rename is
  /// still atomic) but not power loss. For tests and throwaway state.
  kNone,
};

struct AtomicWriteOptions {
  /// Write+rename attempts before giving up and returning the last error.
  int max_attempts = 3;
  Durability durability = Durability::kFsync;
};

/// \brief Atomically replaces the file at `path` with `bytes` (temp write +
///        fsync + rename + directory fsync), retrying transient failures up
///        to `max_attempts` times.
///
/// On failure the previous contents of `path` are intact and the temp file
/// has been removed (best effort).
Status AtomicWriteFile(const std::string& path, const std::string& bytes,
                       const AtomicWriteOptions& options = {});

/// \brief Writes `bytes` to the file at `path` (created, or truncated),
///        retrying interrupted and short writes, fsyncs it under
///        Durability::kFsync, and closes it.
///
/// No rename and no directory fsync: the file step of AtomicWriteFile, and
/// of the journal's segment headers and checkpoint temp file.
Status WriteFileSynced(const std::string& path, std::string_view bytes,
                       Durability durability = Durability::kFsync);

/// An IoError of `what` and the message of the current errno.
Status Errno(const std::string& what);

/// The directory component of `path` ("." when there is none, "/" at root).
std::string ParentDirectory(const std::string& path);

/// fsyncs the file at `path` (open + fsync + close).
Status FsyncPath(const std::string& path);

/// fsyncs the directory containing `path`, making a rename/create/unlink of
/// that entry durable.
Status FsyncParentDir(const std::string& path);

/// \brief Removes every `*.tmp` entry in `dir` (orphans stranded by a crash
///        between temp-write and rename). Returns the number removed;
///        best-effort, never fails.
std::size_t RemoveStaleTempFiles(const std::string& dir);

}  // namespace rs::persist
