#include "src/mem/copy_engine.h"

#include <algorithm>
#include <cstring>

namespace nadino {

SimDuration CopyEngine::CostOf(uint64_t bytes, CopyLocality locality) const {
  const double gbps = locality == CopyLocality::kCacheHot ? kHotGbps : kColdGbps;
  const double bytes_per_ns = gbps / 8.0;
  return kPerCopyOverhead +
         static_cast<SimDuration>(static_cast<double>(bytes) / bytes_per_ns + 0.5);
}

SimDuration CopyEngine::Copy(const Buffer& src, Buffer* dst, CopyLocality locality) {
  const auto n = static_cast<uint32_t>(
      std::min<size_t>(src.length, dst->data.size()));
  std::memcpy(dst->data.data(), src.data.data(), n);
  dst->length = n;
  ++copies_;
  bytes_copied_ += n;
  return CostOf(n, locality);
}

}  // namespace nadino
