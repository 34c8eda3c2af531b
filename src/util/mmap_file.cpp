#include "util/mmap_file.h"

#include <utility>

#include "util/binary_io.h"
#include "util/check.h"

#if defined(__unix__) || defined(__APPLE__)
#define BKC_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define BKC_HAVE_MMAP 0
#endif

namespace bkc {

MmapFile MmapFile::open(const std::string& path) {
  MmapFile file;
#if BKC_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  check(fd >= 0, "MmapFile: cannot open ", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw CheckError("MmapFile: cannot stat " + path);
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    throw CheckError("MmapFile: not a regular file: " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    // mmap of length 0 is EINVAL; an empty file is simply an empty span.
    ::close(fd);
    return file;
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping keeps its own reference to the file; the descriptor is
  // not needed past this point either way.
  ::close(fd);
  check(addr != MAP_FAILED, "MmapFile: mmap failed for ", path);
  file.data_ = static_cast<const std::uint8_t*>(addr);
  file.size_ = size;
  file.mapped_ = true;
#else
  // Buffered fallback: same interface and lifetime rules, one copy.
  file.fallback_ = read_file_bytes(path);
  file.data_ = file.fallback_.data();
  file.size_ = file.fallback_.size();
#endif
  return file;
}

void MmapFile::release() noexcept {
#if BKC_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  fallback_.clear();
}

MmapFile::~MmapFile() { release(); }

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      fallback_(std::move(other.fallback_)) {
  // The fallback vector move preserves its heap buffer, but re-anchor
  // anyway so the invariant data_ == fallback_.data() stays exact.
  if (!mapped_ && data_ != nullptr) data_ = fallback_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    release();
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    fallback_ = std::move(other.fallback_);
    if (!mapped_ && data_ != nullptr) data_ = fallback_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

}  // namespace bkc
