#include "wsp/testinfra/dap_chain.hpp"

#include <algorithm>

#include "wsp/common/error.hpp"

namespace wsp::testinfra {

bool DapPort::tck(bool tms, bool tdi) {
  // Actions are decided by the state the controller is *leaving*: capture
  // loads on the edge leaving Capture-xR, shifting happens on every edge
  // leaving Shift-xR (including the final one into Exit1), matching the
  // 1149.1 timing (n rising edges shift exactly n bits).
  const TapState prev = tap_.state();
  const TapState next = tap_.step(tms);

  switch (prev) {
    case TapState::CaptureDr:
      dr_length_ = selected_dr_length();
      switch (ir_) {
        case kIrIdcode: dr_shift_ = idcode_; break;
        case kIrMemRead:
          dr_shift_ = (memory_ && mem_addr_ + 4 <= memory_->capacity())
                          ? memory_->read_word(mem_addr_)
                          : 0;
          break;
        case kIrMemAddr: dr_shift_ = mem_addr_; break;
        default: dr_shift_ = 0; break;
      }
      break;
    case TapState::ShiftDr:
      tdo_ = (dr_shift_ & 1u) != 0;
      dr_shift_ >>= 1;
      if (tdi) dr_shift_ |= (1ull << (dr_length_ - 1));
      break;
    case TapState::CaptureIr:
      ir_shift_ = 0b0001;  // mandated capture pattern ...01
      break;
    case TapState::ShiftIr:
      tdo_ = (ir_shift_ & 1u) != 0;
      ir_shift_ = static_cast<std::uint8_t>(
          (ir_shift_ >> 1) |
          (static_cast<std::uint8_t>(tdi) << (kIrBits - 1)));
      break;
    default:
      break;
  }

  if (next == TapState::UpdateIr) ir_ = ir_shift_ & 0xF;
  if (next == TapState::UpdateDr && !faulty_) {
    // Memory-access side effects commit on Update-DR.
    if (ir_ == kIrMemAddr) {
      mem_addr_ = static_cast<std::uint32_t>(dr_shift_);
    } else if (ir_ == kIrMemData && memory_ &&
               mem_addr_ + 4 <= memory_->capacity()) {
      memory_->write_word(mem_addr_, static_cast<std::uint32_t>(dr_shift_));
      mem_addr_ += 4;  // auto-increment for streaming program load
    } else if (ir_ == kIrMemRead) {
      mem_addr_ += 4;  // advance the streaming read pointer
    }
  }
  if (next == TapState::TestLogicReset) ir_ = kIrIdcode;

  return faulty_ ? false : tdo_;
}

TileTestChain::TileTestChain(int dap_count, std::uint32_t base_idcode,
                             bool tile_faulty)
    : faulty_(tile_faulty) {
  require(dap_count >= 1, "a tile chain needs at least one DAP");
  require(dap_count <= kMaxDapsPerTile, "DAP index must fit the IDCODE field");
  daps_.reserve(static_cast<std::size_t>(dap_count));
  // Per-DAP IDCODE: the tile's base code with the DAP index in bits 7:4
  // (matches WaferTestChain::expected_idcode).  A faulty tile's DAPs are
  // dead: stuck TDO and no memory-port side effects.
  for (int d = 0; d < dap_count; ++d)
    daps_.emplace_back(base_idcode | (static_cast<std::uint32_t>(d) << 4),
                       tile_faulty);
}

bool TileTestChain::tck(bool tms, bool tdi) {
  bool out;
  if (broadcast_) {
    // TDItile fans out to every DAP; TDOtile comes from the first core.
    out = false;
    for (std::size_t d = 0; d < daps_.size(); ++d) {
      const bool o = daps_[d].tck(tms, tdi);
      if (d == 0) out = o;
    }
  } else {
    bool cur = tdi;
    for (auto& dap : daps_) cur = dap.tck(tms, cur);
    out = cur;
  }
  return faulty_ ? false : out;
}

WaferTestChain::WaferTestChain(int tiles, int daps_per_tile,
                               const std::vector<bool>& faulty) {
  require(tiles >= 1, "chain needs at least one tile");
  require(faulty.size() == static_cast<std::size_t>(tiles),
          "fault vector size mismatch");
  tiles_.reserve(static_cast<std::size_t>(tiles));
  for (int t = 0; t < tiles; ++t)
    tiles_.emplace_back(daps_per_tile, expected_idcode(t, 0),
                        faulty[static_cast<std::size_t>(t)]);
}

std::uint32_t WaferTestChain::expected_idcode(int t, int d) const {
  // Vendor-style IDCODE: part number encodes the tile position, the low
  // bits the DAP index; bit 0 is always 1 per IEEE 1149.1.
  return 0x0AF00001u | (static_cast<std::uint32_t>(t) << 12) |
         (static_cast<std::uint32_t>(d) << 4);
}

void WaferTestChain::set_unrolled(int n) {
  require(n >= 0 && n < tile_count(), "unroll depth out of range");
  unrolled_ = n;
}

void WaferTestChain::set_broadcast(bool on) {
  for (auto& t : tiles_) t.set_broadcast(on);
}

bool WaferTestChain::tck(bool tms, bool tdi) {
  // Active prefix: `unrolled_` forwarding tiles plus one loop-back tile.
  const int depth = std::min(unrolled_ + 1, tile_count());
  bool cur = tdi;
  for (int t = 0; t < depth; ++t)
    cur = tiles_[static_cast<std::size_t>(t)].tck(tms, cur);
  // The loop-back tile's TDOtile returns to the controller through the
  // upstream tiles' TDI-bypass wiring (combinational).
  return cur;
}

void TileTestChain::attach_memories(
    const std::vector<mem::SramBank*>& banks) {
  require(banks.size() == daps_.size(),
          "one memory per DAP expected");
  for (std::size_t d = 0; d < daps_.size(); ++d)
    daps_[d].attach_memory(banks[d]);
}

bool JtagHost::clock(bool tms, bool tdi) {
  ++tcks_;
  return chain_->tck(tms, tdi);
}

void JtagHost::reset() {
  for (int i = 0; i < 5; ++i) clock(true, false);
}

void JtagHost::enter_shift_dr() {
  clock(false, false);  // -> Run-Test/Idle
  clock(true, false);   // -> Select-DR-Scan
  clock(false, false);  // -> Capture-DR
  clock(false, false);  // capture happens; -> Shift-DR
}

std::vector<bool> JtagHost::shift_dr(const std::vector<bool>& bits) {
  require(!bits.empty(), "shift_dr needs at least one bit");
  std::vector<bool> out;
  out.reserve(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const bool last = i + 1 == bits.size();
    out.push_back(clock(last, bits[i]));  // final shift exits to Exit1-DR
  }
  clock(true, false);   // -> Update-DR
  clock(false, false);  // -> Run-Test/Idle
  return out;
}

void JtagHost::enter_shift_ir() {
  clock(false, false);  // -> Run-Test/Idle
  clock(true, false);   // -> Select-DR-Scan
  clock(true, false);   // -> Select-IR-Scan
  clock(false, false);  // -> Capture-IR
  clock(false, false);  // capture happens; -> Shift-IR
}

std::vector<bool> JtagHost::shift_ir(const std::vector<bool>& bits) {
  require(!bits.empty(), "shift_ir needs at least one bit");
  std::vector<bool> out;
  out.reserve(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const bool last = i + 1 == bits.size();
    out.push_back(clock(last, bits[i]));
  }
  clock(true, false);   // -> Update-IR
  clock(false, false);  // -> Run-Test/Idle
  return out;
}

namespace {
void append_word_bits(std::vector<bool>& bits, std::uint64_t value,
                      int width, int repeats) {
  for (int r = 0; r < repeats; ++r)
    for (int b = 0; b < width; ++b)
      bits.push_back(((value >> b) & 1ull) != 0);
}
}  // namespace

void JtagHost::set_ir_all(std::uint8_t ir, int daps_in_path) {
  require(daps_in_path >= 1, "empty scan path");
  enter_shift_ir();
  std::vector<bool> bits;
  bits.reserve(static_cast<std::size_t>(daps_in_path) * kIrBits);
  append_word_bits(bits, ir, kIrBits, daps_in_path);
  (void)shift_ir(bits);
}

void JtagHost::write_words(std::uint32_t base_addr,
                           const std::vector<std::uint32_t>& words,
                           int daps_in_path) {
  set_ir_all(kIrMemAddr, daps_in_path);
  enter_shift_dr();
  std::vector<bool> addr_bits;
  append_word_bits(addr_bits, base_addr, kWordBits, daps_in_path);
  (void)shift_dr(addr_bits);

  set_ir_all(kIrMemData, daps_in_path);
  for (const std::uint32_t word : words) {
    enter_shift_dr();
    std::vector<bool> bits;
    append_word_bits(bits, word, kWordBits, daps_in_path);
    (void)shift_dr(bits);  // Update-DR writes + auto-increments everywhere
  }
}

std::vector<std::vector<std::uint32_t>> JtagHost::read_words(
    std::uint32_t base_addr, int count, int daps_in_path) {
  set_ir_all(kIrMemAddr, daps_in_path);
  enter_shift_dr();
  std::vector<bool> addr_bits;
  append_word_bits(addr_bits, base_addr, kWordBits, daps_in_path);
  (void)shift_dr(addr_bits);

  set_ir_all(kIrMemRead, daps_in_path);
  std::vector<std::vector<std::uint32_t>> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int w = 0; w < count; ++w) {
    enter_shift_dr();  // Capture-DR loads the current word everywhere
    const std::vector<bool> zeros(
        static_cast<std::size_t>(daps_in_path) * kWordBits, false);
    const std::vector<bool> raw = shift_dr(zeros);
    std::vector<std::uint32_t> per_dap;
    per_dap.reserve(static_cast<std::size_t>(daps_in_path));
    for (int d = 0; d < daps_in_path; ++d) {
      std::uint32_t v = 0;
      for (int b = 0; b < kWordBits; ++b)
        if (raw[static_cast<std::size_t>(d) * kWordBits + b]) v |= 1u << b;
      per_dap.push_back(v);
    }
    out.push_back(std::move(per_dap));
  }
  return out;
}

std::vector<std::uint32_t> JtagHost::read_idcodes(int dap_count) {
  require(dap_count >= 1, "need at least one DAP in the path");
  reset();  // every IR now selects IDCODE
  enter_shift_dr();
  const std::vector<bool> zeros(
      static_cast<std::size_t>(dap_count) * kIdcodeBits, false);
  const std::vector<bool> raw = shift_dr(zeros);

  std::vector<std::uint32_t> codes;
  codes.reserve(static_cast<std::size_t>(dap_count));
  for (int d = 0; d < dap_count; ++d) {
    std::uint32_t v = 0;
    for (int b = 0; b < kIdcodeBits; ++b)
      if (raw[static_cast<std::size_t>(d) * kIdcodeBits + b])
        v |= (1u << b);
    codes.push_back(v);
  }
  return codes;
}

std::optional<int> WaferTestChain::locate_first_faulty(
    std::uint64_t* tck_budget) {
  JtagHost host(*this);
  const int daps_per_tile = tiles_.front().daps_in_path();

  std::optional<int> first_faulty;
  for (int k = 0; k < tile_count(); ++k) {
    set_unrolled(k);
    // Active depth is k+1 tiles; the DAP nearest TDO (tile k's last DAP)
    // shifts out first, so the newly appended tile occupies the first
    // `daps_per_tile` result slots.
    const int path_daps = (k + 1) * daps_per_tile;
    const std::vector<std::uint32_t> codes = host.read_idcodes(path_daps);
    bool ok = true;
    for (int d = 0; d < daps_per_tile; ++d) {
      const int dap_index = daps_per_tile - 1 - d;  // last DAP out first
      if (codes[static_cast<std::size_t>(d)] !=
          expected_idcode(k, dap_index)) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      first_faulty = k;
      set_unrolled(std::max(0, k - 1));  // park at the last good prefix
      break;
    }
  }
  if (tck_budget) *tck_budget += host.tck_count();
  return first_faulty;
}

std::uint64_t progressive_unroll_tcks(int tiles, int daps_in_path,
                                      std::optional<int> first_faulty) {
  require(tiles >= 1, "chain needs at least one tile");
  require(daps_in_path >= 1, "need at least one DAP in the path");
  require(!first_faulty || (*first_faulty >= 0 && *first_faulty < tiles),
          "first faulty tile out of range");
  // Sum over k = 0..K of (11 + 32·(k+1)·d), with K+1 steps.
  const auto steps =
      static_cast<std::uint64_t>(first_faulty ? *first_faulty + 1 : tiles);
  const auto d = static_cast<std::uint64_t>(daps_in_path);
  return 11 * steps +
         static_cast<std::uint64_t>(kIdcodeBits) * d * steps * (steps + 1) / 2;
}

}  // namespace wsp::testinfra
