#include "base/simd.hpp"

#include <sys/mman.h>

#include <cstring>

namespace loctk::simd {

ZeroedDoubles::ZeroedDoubles(std::size_t n) : size_(n) {
  if (n == 0) return;
  const std::size_t bytes = n * sizeof(double);
  if (mapped()) {
    // Anonymous mappings are page-aligned and read as zeros.
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      size_ = 0;
      throw std::bad_alloc();
    }
    data_ = static_cast<double*>(p);
    return;
  }
  data_ = static_cast<double*>(
      ::operator new(bytes, std::align_val_t{kAlignment}));
  std::memset(data_, 0, bytes);
}

ZeroedDoubles::~ZeroedDoubles() {
  if (data_ == nullptr) return;
  if (mapped()) {
    ::munmap(data_, size_ * sizeof(double));
  } else {
    ::operator delete(data_, std::align_val_t{kAlignment});
  }
}

}  // namespace loctk::simd
