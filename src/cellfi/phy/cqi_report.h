// CQI reporting formats (3GPP 36.213 Section 7.2.1).
//
// CellFi configures clients for higher-layer-configured aperiodic mode 3-0
// sub-band reports every 2 ms (paper Sections 5.1, 6.3.4): one 4-bit
// wideband CQI plus a 2-bit differential CQI per sub-band. The encoder and
// decoder here are exact round-trips of that quantization, and
// `PayloadBits` is what the paper's signalling-overhead estimate counts.
#pragma once

#include <cstdint>
#include <vector>

namespace cellfi {

/// An unquantized measurement: wideband CQI plus per-subband CQI.
struct CqiMeasurement {
  int wideband_cqi = 0;
  std::vector<int> subband_cqi;
};

/// Wire form of an aperiodic mode 3-0 report.
struct Mode30Report {
  std::uint8_t wideband = 0;             // 4 bits
  std::vector<std::uint8_t> subband_diff; // 2 bits each
};

/// Differential offsets representable by the 2-bit subband field
/// (36.213 Table 7.2.1-2): {0, +1, +2, <= -1}.
int DiffToOffset(std::uint8_t diff);

/// Encode a measurement into mode 3-0 wire form.
Mode30Report EncodeMode30(const CqiMeasurement& m);

/// Decode back to (quantized) CQI values.
CqiMeasurement DecodeMode30(const Mode30Report& r);

/// Report payload in bits: 4 + 2 * num_subbands.
int PayloadBits(const Mode30Report& r);

/// Uplink overhead in bits/s for a report of `payload_bits` every
/// `period_ms` milliseconds.
double SignallingOverheadBps(int payload_bits, double period_ms);

/// One client's CQI measurement from its per-subchannel SINRs (dB):
/// sub-band CQI = SinrToCqi(sinr + margin), wideband CQI from the mean
/// linear SINR, optionally passed through the literal mode 3-0 wire format
/// (whose 2-bit differential clamp then applies). The result is a pure
/// function of (SINRs, margin, wire format), and within a fading block the
/// SINRs repeat until some transmit pattern changes, so Measure() replays
/// its previous result when all three inputs are bit-equal (DESIGN.md §20).
class CqiMeasurer {
 public:
  struct Result {
    CqiMeasurement decoded;         // what the eNodeB receives
    int wideband_cqi = 0;           // measured, before any wire-format clamp
    double wideband_sinr_db = 0.0;  // of the mean linear SINR
  };

  /// The measurement of `sinr_db`; valid until the next call.
  const Result& Measure(const std::vector<double>& sinr_db, double margin_db,
                        bool mode30_wire_format);

 private:
  bool valid_ = false;
  std::vector<double> sinr_db_;
  double margin_db_ = 0.0;
  bool mode30_ = false;
  Result result_;
};

}  // namespace cellfi
