// Private helpers for raw file-descriptor I/O shared by the persistent
// stores (FileBlockStore, WalJournal): full-coverage pread/pwrite loops
// with EINTR retry and explicit 64-bit offsets. Not installed; include via
// relative path from src/storage only.
#pragma once

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "reldev/util/lockdep.hpp"
#include "reldev/util/result.hpp"

namespace reldev::storage::detail {

inline std::string errno_text() { return std::strerror(errno); }

// Every helper here blocks on disk I/O, so each one checks the
// blocking-under-lock rule: calling it with any reldev::Mutex held
// violates the library's lock discipline (DESIGN.md §15) and throws
// ContractViolation (lockdep.hpp).

/// Full-coverage pwrite loop; explicit 64-bit offsets (off_t, not long).
inline Status write_at(int fd, std::uint64_t offset, const void* data,
                       std::size_t size) {
  lockdep::check_blocking("pwrite");
  const auto* bytes = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ::ssize_t n = ::pwrite(fd, bytes + done, size - done,
                                 static_cast<::off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errors::io_error("write failed: " + errno_text());
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

/// Full-coverage pread loop. Distinguishes a short read (end of file —
/// the signature of a truncated/torn record) from a true I/O error.
enum class ReadOutcome { kOk, kShort };
inline Result<ReadOutcome> read_at(int fd, std::uint64_t offset, void* data,
                                   std::size_t size) {
  lockdep::check_blocking("pread");
  auto* bytes = static_cast<char*>(data);
  std::size_t done = 0;
  while (done < size) {
    const ::ssize_t n = ::pread(fd, bytes + done, size - done,
                                static_cast<::off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errors::io_error("read failed: " + errno_text());
    }
    if (n == 0) return ReadOutcome::kShort;  // end of file
    done += static_cast<std::size_t>(n);
  }
  return ReadOutcome::kOk;
}

/// Drop the first `done` bytes from the front of `iov`: the iovecs fully
/// covered go, the next one starts where the transfer stopped.
inline std::span<::iovec> advance_iov(std::span<::iovec> iov,
                                      std::size_t done) {
  while (!iov.empty() && done >= iov.front().iov_len) {
    done -= iov.front().iov_len;
    iov = iov.subspan(1);
  }
  if (!iov.empty()) {
    iov.front().iov_base = static_cast<char*>(iov.front().iov_base) + done;
    iov.front().iov_len -= done;
  }
  return iov;
}

/// Full-coverage pwritev loop: every byte of `iov` lands at `offset`
/// onward. The iovecs are consumed (advanced in place) as bytes land.
inline Status writev_at(int fd, std::uint64_t offset, std::span<::iovec> iov) {
  lockdep::check_blocking("pwritev");
  while (!iov.empty()) {
    const ::ssize_t n = ::pwritev(fd, iov.data(), static_cast<int>(iov.size()),
                                  static_cast<::off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errors::io_error("write failed: " + errno_text());
    }
    offset += static_cast<std::uint64_t>(n);
    iov = advance_iov(iov, static_cast<std::size_t>(n));
  }
  return Status::ok();
}

/// Full-coverage preadv loop from `offset` into `iov`, consumed in place.
/// Returns the bytes read: less than the iovecs' total only at end of
/// file (a truncated tail), never on a true I/O error, which fails.
inline Result<std::size_t> readv_at(int fd, std::uint64_t offset,
                                    std::span<::iovec> iov) {
  lockdep::check_blocking("preadv");
  std::size_t total = 0;
  while (!iov.empty()) {
    const ::ssize_t n = ::preadv(fd, iov.data(), static_cast<int>(iov.size()),
                                 static_cast<::off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return errors::io_error("read failed: " + errno_text());
    }
    if (n == 0) break;  // end of file
    offset += static_cast<std::uint64_t>(n);
    total += static_cast<std::size_t>(n);
    iov = advance_iov(iov, static_cast<std::size_t>(n));
  }
  return total;
}

/// fsync(2) with EINTR retry.
inline Status sync_fd(int fd) {
  lockdep::check_blocking("fsync");
  while (::fsync(fd) != 0) {
    if (errno == EINTR) continue;
    return errors::io_error("fsync failed: " + errno_text());
  }
  return Status::ok();
}

/// fsync the directory that names `path`, making a freshly created file's
/// directory entry durable. A filesystem that cannot fsync a directory
/// (EINVAL/ENOTSUP/EBADF on exotic mounts, EROFS, EACCES on the open) is
/// tolerated — the entry is as durable as that filesystem allows — but a
/// real I/O failure (EIO and friends) surfaces: silently losing the entry
/// would break the create-then-rely durability contract.
inline Status sync_parent_dir(const std::string& path) {
  lockdep::check_blocking("fsync(dir)");
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : (slash == 0 ? "/" : path.substr(0, slash));
  int dir_fd = -1;
  do {
    dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  } while (dir_fd < 0 && errno == EINTR);
  if (dir_fd < 0) {
    if (errno == EACCES || errno == EROFS) return Status::ok();
    return errors::io_error("cannot open directory " + dir + " for fsync: " +
                            errno_text());
  }
  Status status = Status::ok();
  while (::fsync(dir_fd) != 0) {
    if (errno == EINTR) continue;
    if (errno == EINVAL || errno == ENOTSUP || errno == EROFS ||
        errno == EBADF) {
      break;  // this filesystem refuses directory fsync; best effort
    }
    status = errors::io_error("directory fsync of " + dir + " failed: " +
                              errno_text());
    break;
  }
  ::close(dir_fd);
  return status;
}

}  // namespace reldev::storage::detail
