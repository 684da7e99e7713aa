// Semiring abstractions: SpGEMM is computed over a configurable (⊕, ⊗)
// pair so the same kernels serve numeric multiplication (plus-times),
// reachability (or-and), shortest paths (min-plus), and the BC traversals.
#pragma once

#include <algorithm>
#include <concepts>
#include <limits>
#include <type_traits>

namespace sa1d {

/// A semiring provides: value_type, zero() (⊕-identity and annihilator),
/// add(a,b) = a ⊕ b, multiply(a,b) = a ⊗ b.
template <typename SR>
concept SemiringConcept = requires(typename SR::value_type a, typename SR::value_type b) {
  { SR::zero() } -> std::convertible_to<typename SR::value_type>;
  { SR::add(a, b) } -> std::convertible_to<typename SR::value_type>;
  { SR::multiply(a, b) } -> std::convertible_to<typename SR::value_type>;
};

/// Standard arithmetic semiring (+, ×). The numeric SpGEMM of the paper.
template <typename T = double>
struct PlusTimes {
  using value_type = T;
  static constexpr T zero() { return T{0}; }
  static T add(T a, T b) { return a + b; }
  static T multiply(T a, T b) { return a * b; }
};

/// Boolean reachability semiring (∨, ∧).
struct OrAnd {
  using value_type = bool;
  static constexpr bool zero() { return false; }
  static bool add(bool a, bool b) { return a || b; }
  static bool multiply(bool a, bool b) { return a && b; }
};

/// Tropical semiring (min, +) for shortest paths.
template <typename T = double>
struct MinPlus {
  using value_type = T;
  static constexpr T zero() { return std::numeric_limits<T>::infinity(); }
  static T add(T a, T b) { return std::min(a, b); }
  static T multiply(T a, T b) { return a + b; }
};

/// Resolves the semiring of a distributed entry point: callers omit the
/// argument (void) to get plus-times over their value type, or name any
/// semiring explicitly — spgemm_dist<MinPlus<double>>(…).
template <typename SR, typename VT>
using ResolveSemiring = std::conditional_t<std::is_void_v<SR>, PlusTimes<VT>, SR>;

/// (+, select-second): multiply ignores the A value. With a 0/1 adjacency
/// pattern this propagates and sums B values along edges — the multi-source
/// BFS path-counting step of betweenness centrality.
template <typename T = double>
struct PlusSelect2nd {
  using value_type = T;
  static constexpr T zero() { return T{0}; }
  static T add(T a, T b) { return a + b; }
  static T multiply(T /*a*/, T b) { return b; }
};

/// Replay seed of a semiring: an exact left identity of ⊕ over every value
/// its ⊗ can return (`add(value(), x) == x` bit for bit). The value-only
/// replay kernel (spgemm_local_replay) seeds C's known rows with it and
/// ⊕-folds every product without a first-touch branch; the reference stores
/// a row's first product as-is, so anything short of bit-exact would change
/// the output. Semirings without such a seed keep `exact = false` and take
/// the kernel's first-touch path (an occupancy bit or a hash-slot tag):
///   - MinPlus: std::min(+inf, NaN) is +inf, so +inf is not exact;
///   - PlusSelect2nd: ⊗ returns B's value untouched, and −0.0 + sNaN is a
///     quiet NaN.
template <typename SR>
struct ReplaySeed {
  static constexpr bool exact = false;
};

/// IEEE `+`: −0.0 + x == x for ±0, ±inf, finite x and quiet NaN (+0.0
/// would turn a −0.0 sum into +0.0). A product a·b is never a signaling
/// NaN. For integer T, -T{0} is 0.
template <typename T>
struct ReplaySeed<PlusTimes<T>> {
  static constexpr bool exact = true;
  static constexpr T value() { return -T{0}; }
};

template <>
struct ReplaySeed<OrAnd> {
  static constexpr bool exact = true;
  static constexpr bool value() { return false; }
};

}  // namespace sa1d
