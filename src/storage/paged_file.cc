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

namespace {

// Copies between a chunk span and a private buffer one relaxed atomic
// access at a time: 8-byte words where the span is word-aligned (chunks
// are), single bytes at its edges. A reader racing a writer of the same
// bytes sees a mix of old and new words, never undefined behaviour.
void LoadSpan(char* span, char* out, size_t n) {
  size_t i = 0;
  for (; i < n && (reinterpret_cast<uintptr_t>(span + i) % 8 != 0); ++i) {
    out[i] = std::atomic_ref<char>(span[i]).load(std::memory_order_relaxed);
  }
  for (; i + 8 <= n; i += 8) {
    const uint64_t word = std::atomic_ref<uint64_t>(
        *reinterpret_cast<uint64_t*>(span + i)).load(std::memory_order_relaxed);
    memcpy(out + i, &word, 8);
  }
  for (; i < n; ++i) {
    out[i] = std::atomic_ref<char>(span[i]).load(std::memory_order_relaxed);
  }
}

void StoreSpan(const char* in, char* span, size_t n) {
  size_t i = 0;
  for (; i < n && (reinterpret_cast<uintptr_t>(span + i) % 8 != 0); ++i) {
    std::atomic_ref<char>(span[i]).store(in[i], std::memory_order_relaxed);
  }
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    memcpy(&word, in + i, 8);
    std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(span + i))
        .store(word, std::memory_order_relaxed);
  }
  for (; i < n; ++i) {
    std::atomic_ref<char>(span[i]).store(in[i], std::memory_order_relaxed);
  }
}

}  // namespace

InMemoryFile::~InMemoryFile() {
  for (uint64_t i = 0; i < chunks_; ++i) {
    delete[] root_[i / kLeafChunks].load(std::memory_order_relaxed)
        ->chunks[i % kLeafChunks].load(std::memory_order_relaxed);
  }
  for (auto& leaf : root_) delete leaf.load(std::memory_order_relaxed);
}

template <typename Fn>
void InMemoryFile::ForEachSpan(uint64_t offset, size_t n, Fn&& fn) const {
  while (n > 0) {
    const uint64_t chunk = offset / kChunkSize;
    const size_t in_chunk = offset % kChunkSize;
    const size_t len = std::min(n, kChunkSize - in_chunk);
    uint64_t* words = root_[chunk / kLeafChunks]
                          .load(std::memory_order_acquire)
                          ->chunks[chunk % kLeafChunks]
                          .load(std::memory_order_acquire);
    fn(reinterpret_cast<char*>(words) + in_chunk, len);
    offset += len;
    n -= len;
  }
}

void InMemoryFile::Grow(uint64_t end, uint64_t zero_to) {
  for (; chunks_ * kChunkSize < end; ++chunks_) {
    std::atomic<Leaf*>& slot = root_[chunks_ / kLeafChunks];
    Leaf* leaf = slot.load(std::memory_order_relaxed);
    if (leaf == nullptr) {
      leaf = new Leaf();
      slot.store(leaf, std::memory_order_release);
    }
    leaf->chunks[chunks_ % kLeafChunks].store(
        new uint64_t[kChunkSize / 8], std::memory_order_release);
  }
  static const char kZeros[kChunkSize] = {};
  const uint64_t size = size_.load(std::memory_order_relaxed);
  if (zero_to > size) {
    ForEachSpan(size, zero_to - size, [](char* span, size_t len) {
      StoreSpan(kZeros, span, len);
    });
  }
}

Status InMemoryFile::ReadAt(uint64_t offset, size_t n, char* buf) const {
  const uint64_t size = size_.load(std::memory_order_acquire);
  if (offset > size || n > size - offset) {
    return Status::OutOfRange("read past end of in-memory file");
  }
  ForEachSpan(offset, n, [&](char* span, size_t len) {
    LoadSpan(span, buf, len);
    buf += len;
  });
  return Status::OK();
}

Status InMemoryFile::WriteAt(uint64_t offset, const char* data, size_t n) {
  if (offset > kCapacity || n > kCapacity - offset) {
    return Status::IOError("write past the in-memory file's capacity");
  }
  const uint64_t end = offset + n;
  const auto copy = [&] {
    ForEachSpan(offset, n, [&](char* span, size_t len) {
      StoreSpan(data, span, len);
      data += len;
    });
  };
  if (end <= size_.load(std::memory_order_acquire)) {
    copy();
  } else {
    std::lock_guard<std::mutex> guard(grow_mu_);
    const uint64_t size = size_.load(std::memory_order_relaxed);
    Grow(end, offset);
    copy();
    if (end > size) size_.store(end, std::memory_order_release);
  }
  MarkDirty();
  return Status::OK();
}

Status InMemoryFile::Truncate(uint64_t size) {
  if (size > kCapacity) {
    return Status::IOError("truncate past the in-memory file's capacity");
  }
  {
    std::lock_guard<std::mutex> guard(grow_mu_);
    Grow(size, size);
    size_.store(size, std::memory_order_release);
  }
  MarkDirty();
  return Status::OK();
}

uint64_t InMemoryFile::Size() const {
  return size_.load(std::memory_order_acquire);
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
