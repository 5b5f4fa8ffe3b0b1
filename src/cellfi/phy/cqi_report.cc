#include "cellfi/phy/cqi_report.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "cellfi/common/units.h"
#include "cellfi/phy/cqi_mcs.h"

namespace cellfi {

int DiffToOffset(std::uint8_t diff) {
  switch (diff & 0x3) {
    case 0: return 0;
    case 1: return 1;
    case 2: return 2;
    default: return -1;  // "less than or equal to -1"
  }
}

namespace {
std::uint8_t OffsetToDiff(int offset) {
  if (offset <= -1) return 3;
  if (offset >= 2) return 2;
  return static_cast<std::uint8_t>(offset);
}
}  // namespace

Mode30Report EncodeMode30(const CqiMeasurement& m) {
  Mode30Report r;
  r.wideband = static_cast<std::uint8_t>(QuantizeCqi(m.wideband_cqi));
  r.subband_diff.reserve(m.subband_cqi.size());
  for (int sb : m.subband_cqi) {
    r.subband_diff.push_back(OffsetToDiff(QuantizeCqi(sb) - r.wideband));
  }
  return r;
}

CqiMeasurement DecodeMode30(const Mode30Report& r) {
  CqiMeasurement m;
  m.wideband_cqi = r.wideband;
  m.subband_cqi.reserve(r.subband_diff.size());
  for (std::uint8_t d : r.subband_diff) {
    m.subband_cqi.push_back(std::clamp(r.wideband + DiffToOffset(d), 0, kMaxCqi));
  }
  return m;
}

int PayloadBits(const Mode30Report& r) {
  return 4 + 2 * static_cast<int>(r.subband_diff.size());
}

double SignallingOverheadBps(int payload_bits, double period_ms) {
  return static_cast<double>(payload_bits) / (period_ms * 1e-3);
}

const CqiMeasurer::Result& CqiMeasurer::Measure(const std::vector<double>& sinr_db,
                                                 double margin_db,
                                                 bool mode30_wire_format) {
  if (valid_ && sinr_db.size() == sinr_db_.size() &&
      std::memcmp(sinr_db.data(), sinr_db_.data(), sinr_db.size() * sizeof(double)) == 0 &&
      std::bit_cast<std::uint64_t>(margin_db) == std::bit_cast<std::uint64_t>(margin_db_) &&
      mode30_wire_format == mode30_) {
    return result_;
  }
  valid_ = true;
  // Both vectors are sized in place: one allocation each on the first
  // measurement, none after while the sub-band count holds.
  sinr_db_.assign(sinr_db.begin(), sinr_db.end());
  margin_db_ = margin_db;
  mode30_ = mode30_wire_format;
  CqiMeasurement& m = result_.decoded;
  m.subband_cqi.resize(sinr_db.size());
  double wideband_linear = 0.0;
  for (std::size_t i = 0; i < sinr_db.size(); ++i) {
    m.subband_cqi[i] = SinrToCqi(sinr_db[i] + margin_db);
    wideband_linear += DbToLinear(sinr_db[i]);
  }
  wideband_linear /= static_cast<double>(sinr_db.size());
  result_.wideband_sinr_db = LinearToDb(wideband_linear);
  m.wideband_cqi = SinrToCqi(result_.wideband_sinr_db + margin_db);
  result_.wideband_cqi = m.wideband_cqi;
  if (mode30_wire_format) m = DecodeMode30(EncodeMode30(m));
  return result_;
}

}  // namespace cellfi
