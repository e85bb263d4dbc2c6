// nnn::Expected<T, E> — a value-or-error sum type (API-redesign
// satellite). The toolchain targets C++20, so std::expected (C++23)
// is out of reach; this is the minimal subset the codebase needs,
// with the std spelling (has_value/value/error/value_or) so a future
// migration is a find-and-replace.
//
// Conventions:
//   * E defaults to nnn::Error so signatures read Expected<Packet>.
//   * Failure is constructed via unexpected(Error{...}) — the
//     Unexpected wrapper disambiguates the error alternative when T
//     and E could both be constructed from the argument.
//
// No exceptions: value()/error() assert in debug builds and are
// undefined on the wrong alternative in release, matching the
// repo-wide noexcept style (ByteReader, SpscRing).
#pragma once

#include <cassert>
#include <optional>
#include <type_traits>
#include <utility>
#include <variant>

#include "util/error.h"

namespace nnn {

/// Wrapper marking a constructor argument as the error alternative.
template <typename E>
class Unexpected {
 public:
  explicit Unexpected(E error) : error_(std::move(error)) {}
  const E& error() const& { return error_; }
  E&& error() && { return std::move(error_); }

 private:
  E error_;
};

/// Deduce-and-wrap helper: return unexpected(Error{...}).
template <typename E>
Unexpected<std::decay_t<E>> unexpected(E&& error) {
  return Unexpected<std::decay_t<E>>(std::forward<E>(error));
}

template <typename T, typename E = Error>
class Expected {
  static_assert(!std::is_same_v<T, E>,
                "Expected<T, E> needs distinct alternatives");

 public:
  using value_type = T;
  using error_type = E;

  // Implicit from the value type: `return packet;` just works.
  Expected(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  // Implicit from Unexpected: `return unexpected(Error{...});`.
  Expected(Unexpected<E> unex)
      : state_(std::in_place_index<1>, std::move(unex).error()) {}

  bool has_value() const noexcept { return state_.index() == 0; }
  explicit operator bool() const noexcept { return has_value(); }

  T& value() & {
    assert(has_value());
    return std::get<0>(state_);
  }
  const T& value() const& {
    assert(has_value());
    return std::get<0>(state_);
  }
  T&& value() && {
    assert(has_value());
    return std::get<0>(std::move(state_));
  }

  const E& error() const& {
    assert(!has_value());
    return std::get<1>(state_);
  }
  E&& error() && {
    assert(!has_value());
    return std::get<1>(std::move(state_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  template <typename U>
  T value_or(U&& fallback) const& {
    return has_value() ? std::get<0>(state_)
                       : static_cast<T>(std::forward<U>(fallback));
  }
  template <typename U>
  T value_or(U&& fallback) && {
    return has_value() ? std::get<0>(std::move(state_))
                       : static_cast<T>(std::forward<U>(fallback));
  }

 private:
  std::variant<T, E> state_;
};

/// Expected<void, E>: success carries no payload (e.g. an apply step).
template <typename E>
class Expected<void, E> {
 public:
  using value_type = void;
  using error_type = E;

  Expected() = default;
  Expected(Unexpected<E> unex) : error_(std::move(unex).error()) {}

  bool has_value() const noexcept { return !error_.has_value(); }
  explicit operator bool() const noexcept { return has_value(); }

  const E& error() const& {
    assert(!has_value());
    return *error_;
  }

 private:
  std::optional<E> error_;
};

}  // namespace nnn
