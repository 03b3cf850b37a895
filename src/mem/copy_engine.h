// Copy accounting: every software data copy on the data plane goes through
// CopyEngine so experiments can assert "zero-copy" literally (copy count == 0
// on NADINO paths) and charge the copying core for the memcpy time.
//
// The cache-locality distinction reproduces the paper's OWRC-Best vs
// OWRC-Worst variants (section 4.1.2): repeated echo measurements leave both
// buffers cache-hot (Best); flushing forces main-memory accesses (Worst).

#ifndef SRC_MEM_COPY_ENGINE_H_
#define SRC_MEM_COPY_ENGINE_H_

#include <cstdint>

#include "src/mem/buffer.h"
#include "src/sim/time.h"

namespace nadino {

enum class CopyLocality {
  kCacheHot,   // Source and destination resident in LLC.
  kCacheCold,  // Forced main-memory access (TLB/cache flushed).
};

class CopyEngine {
 public:
  // Effective copy bandwidths. Calibrated so a 4 KB cache-hot copy plus
  // polling overhead reproduces OWRC-Best (15 us vs 11.6 us two-sided) and
  // the cold variant OWRC-Worst (16.7 us) from Fig. 12.
  static constexpr double kHotGbps = 56.0;
  static constexpr double kColdGbps = 30.0;
  static constexpr SimDuration kPerCopyOverhead = 150;  // Call + loop setup, ns.

  // Copies src's payload into dst (really moves the bytes), records the copy,
  // and returns the CPU time the copy costs at the given locality.
  SimDuration Copy(const Buffer& src, Buffer* dst, CopyLocality locality);

  // Copy cost without performing one (for sizing/analysis).
  SimDuration CostOf(uint64_t bytes, CopyLocality locality) const;

  uint64_t copies() const { return copies_; }
  uint64_t bytes_copied() const { return bytes_copied_; }

 private:
  uint64_t copies_ = 0;
  uint64_t bytes_copied_ = 0;
};

}  // namespace nadino

#endif  // SRC_MEM_COPY_ENGINE_H_
