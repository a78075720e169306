#include "storage/paged_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#if defined(__linux__)
#include <linux/falloc.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace neosi {

// ----------------------------- InMemoryFile -------------------------------

template <typename Fn>
void InMemoryFile::ForEachSpan(uint64_t offset, size_t n, Fn&& fn) const {
  while (n > 0) {
    const size_t in_chunk = offset % kChunkSize;
    const size_t len = std::min(n, kChunkSize - in_chunk);
    fn(chunks_[offset / kChunkSize].get() + in_chunk, len);
    offset += len;
    n -= len;
  }
}

void InMemoryFile::Resize(uint64_t size) {
  const size_t chunks = (size + kChunkSize - 1) / kChunkSize;
  chunks_.resize(std::min(chunks, chunks_.size()));
  while (chunks_.size() < chunks) {
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(kChunkSize));
  }
  if (size > size_) {
    ForEachSpan(size_, size - size_,
                [](char* span, size_t len) { memset(span, 0, len); });
  }
  size_ = size;
}

Status InMemoryFile::ReadAt(uint64_t offset, size_t n, char* buf) const {
  ReadGuard guard(latch_);
  if (offset + n > size_) {
    return Status::OutOfRange("read past end of in-memory file");
  }
  ForEachSpan(offset, n, [&](char* span, size_t len) {
    memcpy(buf, span, len);
    buf += len;
  });
  return Status::OK();
}

Status InMemoryFile::WriteAt(uint64_t offset, const char* data, size_t n) {
  {
    WriteGuard guard(latch_);
    if (offset + n > size_) Resize(offset + n);
    ForEachSpan(offset, n, [&](char* span, size_t len) {
      memcpy(span, data, len);
      data += len;
    });
  }
  MarkDirty();
  return Status::OK();
}

Status InMemoryFile::Truncate(uint64_t size) {
  {
    WriteGuard guard(latch_);
    Resize(size);
  }
  MarkDirty();
  return Status::OK();
}

uint64_t InMemoryFile::Size() const {
  ReadGuard guard(latch_);
  return size_;
}

// ------------------------------- PosixFile --------------------------------

PosixFile::~PosixFile() {
  if (fd_ >= 0) ::close(fd_);
}

Status PosixFile::Open(const std::string& path, bool create,
                       std::shared_ptr<PagedFile>* out) {
  const int flags = create ? O_RDWR | O_CREAT : O_RDWR;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    if (!create && errno == ENOENT) {
      return Status::NotFound("open " + path + ": no such file");
    }
    return Status::IOError("open " + path + ": " + strerror(errno));
  }
  out->reset(new PosixFile(fd, path));
  return Status::OK();
}

Status PosixFile::ReadAt(uint64_t offset, size_t n, char* buf) const {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd_, buf + done, n - done,
                        static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread " + path_ + ": " + strerror(errno));
    }
    if (r == 0) {
      return Status::OutOfRange("read past end of file " + path_);
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

Status PosixFile::WriteAt(uint64_t offset, const char* data, size_t n) {
  size_t done = 0;
  while (done < n) {
    ssize_t w = ::pwrite(fd_, data + done, n - done,
                         static_cast<off_t>(offset + done));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite " + path_ + ": " + strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  MarkDirty();
  return Status::OK();
}

Status PosixFile::Truncate(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::IOError("ftruncate " + path_ + ": " + strerror(errno));
  }
  MarkDirty();
  return Status::OK();
}

Status PosixFile::Preallocate(uint64_t size) {
  if (size == 0) return Status::OK();
#if defined(__linux__) && defined(FALLOC_FL_KEEP_SIZE)
  if (::fallocate(fd_, FALLOC_FL_KEEP_SIZE, 0,
                  static_cast<off_t>(size)) != 0) {
    // Advisory on filesystems without allocation support (tmpfs predates
    // it on some kernels); a real out-of-space must surface, though — the
    // caller falls back to an unreserved segment.
    if (errno != EOPNOTSUPP && errno != ENOTSUP && errno != EINVAL) {
      return Status::IOError("fallocate " + path_ + ": " + strerror(errno));
    }
  }
#else
  (void)size;
#endif
  return Status::OK();
}

Result<uint64_t> PosixFile::ZeroFill(uint64_t from, uint64_t to) {
  constexpr uint64_t kPage = 4096;
  static const char kZeros[kPage] = {};
  for (uint64_t offset = from; offset < to;) {
    const uint64_t page_end = std::min(to, (offset / kPage + 1) * kPage);
    NEOSI_RETURN_IF_ERROR(WriteAt(offset, kZeros, page_end - offset));
    offset = page_end;
  }
  return from < to ? to - from : 0;
}

uint64_t PosixFile::Size() const {
  struct stat st;
  if (::fstat(fd_, &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

Status PosixFile::Sync() {
  if (::fdatasync(fd_) != 0) {
    return Status::IOError("fdatasync " + path_ + ": " + strerror(errno));
  }
  return Status::OK();
}

}  // namespace neosi
