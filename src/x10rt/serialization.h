// Byte-buffer serialization for X10RT control and data messages.
//
// The X10 compiler serializes the captured environment of an `at` body into a
// wire buffer; here the same role is played by an explicit ByteBuffer used by
// the runtime's control protocols (finish snapshots, team collectives) and by
// the non-RDMA data path. Keeping control messages in real wire format lets
// the benches measure coalescing/compression factors the way the paper does.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <tuple>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace x10rt {

/// Growable little-endian-native byte buffer with sequential read cursor.
class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<std::byte> data) : data_(std::move(data)) {}

  /// Appends the raw bytes of a trivially copyable value.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    put_raw(&value, sizeof(T));
  }

  /// Appends a length-prefixed string.
  void put_string(const std::string& s) {
    put(static_cast<std::uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }

  /// Appends a length-prefixed vector of trivially copyable elements.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_vector(const std::vector<T>& v) {
    put(static_cast<std::uint32_t>(v.size()));
    put_raw(v.data(), v.size() * sizeof(T));
  }

  /// Appends `n` raw bytes. Grows with resize + memcpy rather than a range
  /// insert, whose inlined relocation path g++ 12 misreads as an overflow
  /// (-Wstringop-overflow) on a freshly constructed buffer.
  void put_raw(const void* src, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = data_.size();
    data_.resize(at + n);
    std::memcpy(data_.data() + at, src, n);
  }

  /// Overwrites sizeof(T) already-written bytes at `pos` (length-prefix
  /// patching: envelope writers reserve the record count up front and fill
  /// it in at flush time).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void overwrite(std::size_t pos, const T& value) {
    if (pos > data_.size() || sizeof(T) > data_.size() - pos) {
      throw std::out_of_range("ByteBuffer overwrite past end");
    }
    std::memcpy(data_.data() + pos, &value, sizeof(T));
  }

  /// Reads back a trivially copyable value; throws on underflow.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    T out;
    check_remaining(sizeof(T));
    std::memcpy(&out, data_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return out;
  }

  std::string get_string() {
    const auto n = get<std::uint32_t>();
    check_remaining(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + cursor_), n);
    cursor_ += n;
    return s;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vector() {
    const auto n = get<std::uint32_t>();
    // Validate the length prefix *before* sizing the vector: a truncated or
    // corrupt message must fail with the clean out_of_range below, not a
    // multi-gigabyte allocation driven by attacker-controlled bytes.
    check_remaining(static_cast<std::size_t>(n) * sizeof(T));
    std::vector<T> v(n);
    get_raw(v.data(), static_cast<std::size_t>(n) * sizeof(T));
    return v;
  }

  void get_raw(void* dst, std::size_t n) {
    // An empty read (e.g. decoding an empty vector) may pass a null `dst`,
    // and memcpy's pointers must be non-null even for zero bytes.
    if (n == 0) return;
    check_remaining(n);
    std::memcpy(dst, data_.data() + cursor_, n);
    cursor_ += n;
  }

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - cursor_; }
  [[nodiscard]] std::span<const std::byte> bytes() const { return data_; }
  void rewind() { cursor_ = 0; }

  /// Read-cursor position (envelope readers bracket each record with
  /// position()/seek() so a handler cannot overread into its successor).
  [[nodiscard]] std::size_t position() const { return cursor_; }
  void seek(std::size_t pos) {
    if (pos > data_.size()) throw std::out_of_range("ByteBuffer seek past end");
    cursor_ = pos;
  }

  /// Surrenders the underlying storage (for freelist recycling); the buffer
  /// is empty afterwards.
  [[nodiscard]] std::vector<std::byte> take_data() {
    cursor_ = 0;
    return std::exchange(data_, {});
  }

 private:
  void check_remaining(std::size_t n) const {
    // Phrased as a subtraction against the guaranteed cursor_ <= size()
    // invariant: `cursor_ + n` would wrap for adversarial n near SIZE_MAX
    // and let the read through. The PTRDIFF_MAX clause is implied (no
    // vector holds more) but lets the optimizer see that a constant
    // oversize request never reaches memcpy (-Wstringop-overflow).
    if (n > static_cast<std::size_t>(std::numeric_limits<std::ptrdiff_t>::max()) ||
        n > data_.size() - cursor_) {
      throw std::out_of_range("ByteBuffer underflow");
    }
  }

  std::vector<std::byte> data_;
  std::size_t cursor_ = 0;
};

// ---------------------------------------------------------------------------
// Ser<T>: the typed wire convention for remote-task arguments (ISSUE 10).
//
// The X10 compiler emits a serializer per captured type; here the trait plays
// that role. Resolution order:
//   1. a type with member hooks `void ser_put(ByteBuffer&) const` and
//      `static T ser_get(ByteBuffer&)` uses them (user-extensible path);
//   2. trivially copyable types take the raw-bytes fast path;
//   3. std::string / std::vector / std::pair / std::tuple compose
//      element-wise through Ser.
// Anything else fails to compile with a pointed static_assert instead of
// silently shipping padding bytes or pointers across a process boundary.
// ---------------------------------------------------------------------------

template <typename T>
concept HasSerHooks = requires(const T& ct, T& t, ByteBuffer& b) {
  { ct.ser_put(b) } -> std::same_as<void>;
  { T::ser_get(b) } -> std::same_as<T>;
};

template <typename T>
struct Ser {
  static void put(ByteBuffer& b, const T& v) {
    if constexpr (HasSerHooks<T>) {
      v.ser_put(b);
    } else if constexpr (std::is_trivially_copyable_v<T>) {
      b.put(v);
    } else {
      static_assert(HasSerHooks<T> || std::is_trivially_copyable_v<T>,
                    "Ser<T>: type is neither trivially copyable nor provides "
                    "ser_put/ser_get hooks; specialize x10rt::Ser<T> or add "
                    "member hooks to ship it across a process boundary");
    }
  }
  static T get(ByteBuffer& b) {
    if constexpr (HasSerHooks<T>) {
      return T::ser_get(b);
    } else if constexpr (std::is_trivially_copyable_v<T>) {
      return b.get<T>();
    } else {
      static_assert(HasSerHooks<T> || std::is_trivially_copyable_v<T>,
                    "Ser<T>: type is neither trivially copyable nor provides "
                    "ser_put/ser_get hooks; specialize x10rt::Ser<T> or add "
                    "member hooks to ship it across a process boundary");
    }
  }
};

template <>
struct Ser<std::string> {
  static void put(ByteBuffer& b, const std::string& s) { b.put_string(s); }
  static std::string get(ByteBuffer& b) { return b.get_string(); }
};

template <typename T>
struct Ser<std::vector<T>> {
  static void put(ByteBuffer& b, const std::vector<T>& v) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      b.put_vector(v);
    } else {
      b.put(static_cast<std::uint32_t>(v.size()));
      for (const T& e : v) Ser<T>::put(b, e);
    }
  }
  static std::vector<T> get(ByteBuffer& b) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      return b.get_vector<T>();
    } else {
      const auto n = b.get<std::uint32_t>();
      std::vector<T> v;
      v.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) v.push_back(Ser<T>::get(b));
      return v;
    }
  }
};

template <typename A, typename B>
struct Ser<std::pair<A, B>> {
  static void put(ByteBuffer& b, const std::pair<A, B>& p) {
    Ser<A>::put(b, p.first);
    Ser<B>::put(b, p.second);
  }
  static std::pair<A, B> get(ByteBuffer& b) {
    // Braced init guarantees left-to-right evaluation of the two gets.
    return std::pair<A, B>{Ser<A>::get(b), Ser<B>::get(b)};
  }
};

template <typename... Ts>
struct Ser<std::tuple<Ts...>> {
  static void put(ByteBuffer& b, const std::tuple<Ts...>& t) {
    std::apply([&b](const Ts&... es) { (Ser<Ts>::put(b, es), ...); }, t);
  }
  static std::tuple<Ts...> get(ByteBuffer& b) {
    // Braced init guarantees left-to-right evaluation, matching put order.
    return std::tuple<Ts...>{Ser<Ts>::get(b)...};
  }
};

/// Packs a sequence of values through Ser in argument order.
template <typename... Ts>
void ser_put(ByteBuffer& b, const Ts&... vs) {
  (Ser<std::decay_t<Ts>>::put(b, vs), ...);
}

/// Reads one value through Ser.
template <typename T>
T ser_get(ByteBuffer& b) {
  return Ser<T>::get(b);
}

}  // namespace x10rt
