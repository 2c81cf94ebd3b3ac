#pragma once

#include <cstdint>

namespace poi360::lte {

/// Quantizes an uplink grant to a transport block size.
///
/// Real LTE picks a TBS from the 3GPP 36.213 table indexed by (MCS, #PRB);
/// the visible effect at our abstraction level is that per-subframe grants
/// come in discrete steps with a minimum useful size and a per-subframe cap.
/// We reproduce that with a representative ladder: multiples of 24 bytes
/// (a small PRB at low MCS carries ~176-256 bits), a 32-byte minimum
/// (below that the scheduler grants nothing), and a 9 kB/subframe ceiling
/// (~72 Mbps, beyond any uplink considered here).
struct TbsQuantizer {
  static constexpr std::int64_t step_bytes = 24;
  static constexpr std::int64_t min_bytes = 32;
  static constexpr std::int64_t max_bytes = 9000;

  /// Largest TBS not exceeding `grant_bytes`; 0 if below the minimum.
  std::int64_t quantize(std::int64_t grant_bytes) const {
    if (grant_bytes < min_bytes) return 0;
    std::int64_t q = (grant_bytes / step_bytes) * step_bytes;
    if (q > max_bytes) q = max_bytes;
    return q;
  }
};

}  // namespace poi360::lte
