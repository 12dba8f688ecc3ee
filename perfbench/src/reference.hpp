// Pinned results for the seed-independent paper inputs, checked to 1e-9
// relative by the evaluate stage. Regenerate with
// `perfbench --print-reference` only when a change is meant to move them.
#pragma once

namespace perfbench::reference {

/// psd output noise power of the frequency-filtering SFG (Fig. 2, every
/// datapath format sQ8.16) at N_PSD 1024, with its first noise source at
/// 16 and at 17 fractional bits.
inline constexpr double kFreqfiltPsd[2] = {3.25714525373005e-11,
                                           3.1776337461645782e-11};

/// Output power of the 2-level 2-D DWT codec estimate at 128 bins per
/// axis, every format sQ4.16 and sQ4.17.
inline constexpr double kDwt2dPower[2] = {3.0372624250086575e-10,
                                          7.5931560625216439e-11};

}  // namespace perfbench::reference
