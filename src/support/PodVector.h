//===- support/PodVector.h - realloc-grown vector of POD -------*- C++ -*-===//
///
/// \file
/// A minimal vector for trivially copyable elements that grows with
/// std::realloc. Large blocks live in their own mappings, which realloc
/// moves by remapping pages instead of copying them, so a buffer that
/// doubles its way to hundreds of megabytes never pays the element copy
/// (nor holds the old and new block at once) that std::vector's
/// allocate-copy-free growth does. Copies are flat memcpys; copy-assigning
/// into a buffer with enough capacity allocates nothing.
///
//===----------------------------------------------------------------------===//

#ifndef LV_SUPPORT_PODVECTOR_H
#define LV_SUPPORT_PODVECTOR_H

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace lv {

template <class T> class PodVector {
  static_assert(std::is_trivially_copyable<T>::value,
                "PodVector relocates elements with realloc/memcpy");

public:
  PodVector() = default;
  PodVector(const PodVector &O) { *this = O; }
  PodVector(PodVector &&O) noexcept
      : Data(O.Data), Size(O.Size), Cap(O.Cap) {
    O.Data = nullptr;
    O.Size = O.Cap = 0;
  }
  PodVector &operator=(const PodVector &O) {
    if (this != &O) {
      if (Cap < O.Size) {
        std::free(Data);
        Data = nullptr;
        Cap = 0;
        reserve(O.Size);
      }
      if (O.Size)
        std::memcpy(Data, O.Data, O.Size * sizeof(T));
      Size = O.Size;
    }
    return *this;
  }
  PodVector &operator=(PodVector &&O) noexcept {
    std::swap(Data, O.Data);
    std::swap(Size, O.Size);
    std::swap(Cap, O.Cap);
    return *this;
  }
  ~PodVector() { std::free(Data); }

  T &operator[](size_t I) { return Data[I]; }
  const T &operator[](size_t I) const { return Data[I]; }
  size_t size() const { return Size; }
  T *begin() { return Data; }
  T *end() { return Data + Size; }

  void clear() { Size = 0; }
  /// Appends a value-initialized element.
  void emplace_back() {
    if (Size == Cap)
      reserve(Cap ? 2 * Cap : 64);
    new (&Data[Size++]) T();
  }

private:
  void reserve(size_t N) {
    if (N <= Cap)
      return;
    void *P = std::realloc(Data, N * sizeof(T));
    if (!P)
      throw std::bad_alloc();
    Data = static_cast<T *>(P);
    Cap = N;
  }

  T *Data = nullptr;
  size_t Size = 0;
  size_t Cap = 0;
};

} // namespace lv

#endif // LV_SUPPORT_PODVECTOR_H
