#include "kernels/util/hpcc_rng.h"

namespace kernels {

std::uint64_t hpcc_starts(std::int64_t n) {
  constexpr auto kPeriod = static_cast<std::int64_t>(kHpccPeriod);
  while (n < 0) n += kPeriod;
  while (n > kPeriod) n -= kPeriod;
  if (n == 0) return 1;

  std::uint64_t m2[64];
  std::uint64_t temp = 1;
  for (int i = 0; i < 64; ++i) {
    m2[i] = temp;
    temp = hpcc_next(hpcc_next(temp));
  }

  int i = 62;
  while (i >= 0 && !((n >> i) & 1)) --i;

  std::uint64_t ran = 2;
  while (i > 0) {
    temp = 0;
    for (int j = 0; j < 64; ++j) {
      if ((ran >> j) & 1) temp ^= m2[j];
    }
    ran = temp;
    --i;
    if ((n >> i) & 1) ran = hpcc_next(ran);
  }
  return ran;
}

}  // namespace kernels
