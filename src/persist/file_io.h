// The persistence layer's thin POSIX file seam. Every byte the WAL and
// the snapshot writer put on disk goes through the WritableFile
// interface so the fault-injection suite (tests/durability_crash_test.cc)
// can interpose a shim that short-writes, runs out of space, or lies —
// proving the callers' retry/validation loops against the failures real
// kernels produce. Production code uses the PosixWritableFile returned
// by OpenWritableFile; everything here retries EINTR internally.
#ifndef CUCKOOGRAPH_PERSIST_FILE_IO_H_
#define CUCKOOGRAPH_PERSIST_FILE_IO_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cuckoograph::persist {

// A byte sink with POSIX write semantics. Implementations set errno on
// failure (Write returning -1, the bool methods returning false), which
// is what the callers' error messages report.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  // Accepts up to `n` bytes; may accept fewer (a short write). Returns
  // the count accepted, or -1 with errno set. Callers loop — see
  // WriteFully.
  virtual ssize_t Write(const void* data, size_t n) = 0;

  // Flushes written data to stable storage (fdatasync).
  virtual bool Sync() = 0;

  // Truncates the file to `size` bytes; subsequent writes append at the
  // new end (the WAL truncates to zero at a checkpoint).
  virtual bool Truncate(uint64_t size) = 0;

  // Closes the underlying descriptor; further calls are invalid.
  virtual bool Close() = 0;
};

// Writes all `n` bytes through `file`, looping over short writes and
// EINTR. Returns false (errno set) on any hard failure; the file may
// then hold a partial frame — exactly the torn tail recovery tolerates.
bool WriteFully(WritableFile* file, const void* data, size_t n);

// Opens `path` for writing (O_CREAT; `truncate` picks O_TRUNC vs
// O_APPEND). Null with *error set on failure.
std::unique_ptr<WritableFile> OpenWritableFile(const std::string& path,
                                               bool truncate,
                                               std::string* error);

// How the WAL/snapshot writers obtain their files; tests substitute a
// factory returning fault-injecting shims.
using WritableFileFactory = std::function<std::unique_ptr<WritableFile>(
    const std::string& path, bool truncate, std::string* error)>;

// ---- Small filesystem helpers (POSIX, EINTR-retried) ----------------------

bool FileExists(const std::string& path);

// Reads the whole file into *out. False with *error on any failure
// (including a missing file — probe with FileExists first).
bool ReadFileBytes(const std::string& path, std::string* out,
                   std::string* error);

// mkdir -p: creates `path` and any missing parents.
bool EnsureDir(const std::string& path, std::string* error);

// fsyncs a directory so a rename/creation inside it is durable.
bool SyncDir(const std::string& path, std::string* error);

// rename(2); atomic within a filesystem. Caller syncs the directory.
bool RenameFile(const std::string& from, const std::string& to,
                std::string* error);

bool RemoveFile(const std::string& path);

// truncate(2) by path (recovery chops torn WAL tails with this).
bool TruncateFile(const std::string& path, uint64_t size,
                  std::string* error);

// Entry names (no "."/"..") in `path`; empty on error.
std::vector<std::string> ListDir(const std::string& path);

// mkdtemp under $TMPDIR (or /tmp): "<tmp>/<prefix>XXXXXX". Empty string
// with *error on failure.
std::string MakeTempDir(const std::string& prefix, std::string* error);

// Unlinks every entry in `path` (recursing into subdirectories), then
// rmdirs it: how callers remove a DurableStore's directory once the
// store has closed. Best effort.
void RemoveDirTree(const std::string& path);

}  // namespace cuckoograph::persist

#endif  // CUCKOOGRAPH_PERSIST_FILE_IO_H_
