// Protected session: encrypt a short message block by block through the
// RFTC-protected device, as a firmware image or telemetry stream on the
// SASEBO-class board would be.
//
// Every single block encryption runs at fresh randomized frequencies, yet
// the output is byte-identical to software AES — the countermeasure is
// invisible to the protocol.
//
//   $ ./examples/protected_session
#include <cstdio>

#include "aes/aes128.hpp"
#include "rftc/device.hpp"
#include "util/histogram.hpp"

int main() {
  using namespace rftc;
  const aes::Key key = {0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6,
                        0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C};
  constexpr int kBlocks = 8;

  core::RftcDevice device = core::RftcDevice::make(key, 3, 64, 7);
  ExactHistogram timings;
  int matching = 0;
  for (int i = 0; i < kBlocks; ++i) {
    aes::Block pt{};
    for (std::size_t b = 0; b < pt.size(); ++b)
      pt[b] = static_cast<std::uint8_t>(16 * i + static_cast<int>(b));
    const core::EncryptionRecord rec = device.encrypt(pt);
    timings.add(rec.schedule.completion_ps());
    if (rec.ciphertext == aes::encrypt(pt, key)) ++matching;
  }
  std::printf("%d blocks through RFTC(3, 64): %d/%d identical to software "
              "AES\n",
              kBlocks, matching, kBlocks);

  std::printf("\nBlock encryptions performed: %llu\n",
              static_cast<unsigned long long>(timings.total()));
  std::printf("Distinct completion times   : %zu (a fixed-clock core would "
              "show exactly 1)\n",
              timings.distinct());
  return matching == kBlocks ? 0 : 1;
}
