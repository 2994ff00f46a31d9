// DAP models, the 14-DAP intra-tile chain with broadcast mode, and the
// multi-tile chain with progressive loop-back unrolling
// (Sec. VII, Figs. 9 and 10).
//
// Intra-tile: the 14 core DAPs are daisy-chained so one JTAG interface
// serves the whole tile.  A broadcast mode feeds TDItile to *all* DAP TDI
// pins and takes TDOtile from the first core — when every core runs the
// same program (the common case for the paper's workloads), program
// loading shifts one DAP's worth of bits instead of fourteen (14x faster).
//
// Inter-tile: tiles chain along a row.  Each tile's TDOtile either
// forwards to the next tile or loops back toward the external controller
// through the upstream tiles' TDI-bypass wiring.  On power-up every tile
// is in loop-back mode; the chain is unrolled tile by tile, testing each
// newly appended tile, which pin-points the first faulty chiplet in the
// chain (and works for partially assembled wafers during bonding).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "wsp/mem/sram_bank.hpp"
#include "wsp/testinfra/tap.hpp"

namespace wsp::testinfra {

/// IR opcodes of the simplified DAP (4-bit IR, per ARM convention the IR
/// capture pattern is 0b0001).
inline constexpr std::uint8_t kIrBypass = 0xF;
inline constexpr std::uint8_t kIrIdcode = 0xE;
/// Memory-access registers: address (auto-incrementing) and data.  These
/// model the DAP's memory-access port used for program/data loading —
/// an Update-DR on the data register writes one word into the attached
/// SRAM, a Capture-DR reads one back.
inline constexpr std::uint8_t kIrMemAddr = 0x8;
inline constexpr std::uint8_t kIrMemData = 0x9;  ///< write on Update-DR
inline constexpr std::uint8_t kIrMemRead = 0xA;  ///< capture on Capture-DR
inline constexpr int kIrBits = 4;
inline constexpr int kIdcodeBits = 32;
inline constexpr int kWordBits = 32;
/// The DAP index occupies IDCODE bits 7:4.
inline constexpr int kMaxDapsPerTile = 16;

/// One core's Debug Access Port: TAP controller + IR + IDCODE/BYPASS DRs.
/// A faulty DAP drives its TDO stuck-at-0.
class DapPort {
 public:
  explicit DapPort(std::uint32_t idcode, bool faulty = false)
      : idcode_(idcode), faulty_(faulty) {}

  std::uint32_t idcode() const { return idcode_; }
  bool faulty() const { return faulty_; }
  TapState state() const { return tap_.state(); }
  std::uint8_t ir() const { return ir_; }

  /// Binds the memory the DAP's memory-access port reads/writes (a core's
  /// private SRAM in the real chip).  Not owned.
  void attach_memory(mem::SramBank* memory) { memory_ = memory; }
  std::uint32_t mem_address() const { return mem_addr_; }

  /// One TCK rising edge.  Returns the TDO value presented downstream.
  bool tck(bool tms, bool tdi);

 private:
  TapController tap_;
  std::uint32_t idcode_;
  bool faulty_;
  std::uint8_t ir_ = kIrIdcode;        ///< reset value selects IDCODE
  std::uint8_t ir_shift_ = 0;
  std::uint64_t dr_shift_ = 0;
  int dr_length_ = kIdcodeBits;
  bool tdo_ = false;
  mem::SramBank* memory_ = nullptr;
  std::uint32_t mem_addr_ = 0;

  int selected_dr_length() const {
    switch (ir_) {
      case kIrIdcode: return kIdcodeBits;
      case kIrMemAddr:
      case kIrMemData:
      case kIrMemRead: return kWordBits;
      default: return 1;  // everything else behaves as BYPASS
    }
  }
};

/// The 14-DAP chain inside one tile, with broadcast mode (Fig. 9).
class TileTestChain {
 public:
  TileTestChain(int dap_count, std::uint32_t base_idcode,
                bool tile_faulty = false);

  int dap_count() const { return static_cast<int>(daps_.size()); }
  bool faulty() const { return faulty_; }

  /// Broadcast mode: TDI to all DAPs, TDO from the first core.
  void set_broadcast(bool on) { broadcast_ = on; }
  bool broadcast() const { return broadcast_; }

  /// One TCK edge through the tile chain: returns TDOtile.
  bool tck(bool tms, bool tdi);

  /// Serial scan-path bit length currently presented by the tile
  /// (broadcast mode shows a single DAP).
  int daps_in_path() const { return broadcast_ ? 1 : dap_count(); }

  const DapPort& dap(int i) const { return daps_[static_cast<std::size_t>(i)]; }
  DapPort& dap(int i) { return daps_[static_cast<std::size_t>(i)]; }

  /// Binds each DAP's memory-access port to a core-private SRAM.
  void attach_memories(const std::vector<mem::SramBank*>& banks);

 private:
  std::vector<DapPort> daps_;
  bool broadcast_ = false;
  bool faulty_ = false;
};

/// Multi-tile JTAG chain with progressive unrolling (Fig. 10).
class WaferTestChain {
 public:
  /// `faulty[i]` marks tile i's chiplet as bad (its TDO sticks at 0).
  WaferTestChain(int tiles, int daps_per_tile,
                 const std::vector<bool>& faulty);

  int tile_count() const { return static_cast<int>(tiles_.size()); }

  /// Number of tiles currently in forward mode; the chain's active depth
  /// is `unrolled() + 1` (the next tile is in loop-back).
  int unrolled() const { return unrolled_; }
  /// Moves the first `n` tiles to forward mode (0 <= n < tile_count).
  void set_unrolled(int n);

  /// Broadcast mode applied to every tile.
  void set_broadcast(bool on);

  /// One TCK edge through the active chain prefix; returns TDOloop.
  bool tck(bool tms, bool tdi);

  /// Expected IDCODE of tile `t`, dap `d`.
  std::uint32_t expected_idcode(int t, int d) const;

  TileTestChain& tile(int t) { return tiles_[static_cast<std::size_t>(t)]; }

  /// Runs the progressive unrolling procedure of Fig. 10: unrolls the
  /// chain one tile at a time, reading the newly appended tile's IDCODEs,
  /// and returns the index of the first faulty tile (nullopt when the
  /// whole chain is good).  Leaves the chain unrolled up to the last good
  /// tile.  `tck_budget`, if non-null, accumulates TCK cycles spent.
  std::optional<int> locate_first_faulty(std::uint64_t* tck_budget = nullptr);

 private:
  std::vector<TileTestChain> tiles_;
  int unrolled_ = 0;

  friend class JtagHost;
};

/// TCK cycles WaferTestChain::locate_first_faulty spends on a chain of
/// `tiles` tiles with `daps_in_path` DAPs per tile in the scan path, given
/// the index of the first faulty tile (nullopt for a fault-free chain).
/// Unroll step k reads the (k+1)·d IDCODEs of the active prefix: 5 reset,
/// 4 enter-Shift-DR, 32·(k+1)·d shift and 2 exit clocks.  Steps run from 0
/// to the first faulty index, or to tiles-1 when every tile is good.
std::uint64_t progressive_unroll_tcks(int tiles, int daps_in_path,
                                      std::optional<int> first_faulty);

/// Host-side JTAG driver: wiggles TMS/TDI against a WaferTestChain and
/// implements the standard scan operations.
class JtagHost {
 public:
  explicit JtagHost(WaferTestChain& chain) : chain_(&chain) {}

  std::uint64_t tck_count() const { return tcks_; }

  /// Five TMS-high clocks: synchronous reset into Test-Logic-Reset.
  void reset();

  /// From Run-Test/Idle (or reset), enter Shift-DR.
  void enter_shift_dr();
  /// From Run-Test/Idle (or reset), enter Shift-IR.
  void enter_shift_ir();

  /// Shifts `bits.size()` bits through the DR path (LSB-first of the
  /// vector), leaving Shift-DR on the last bit (exit via Exit1->Update).
  /// Returns the bits captured from TDO.
  std::vector<bool> shift_dr(const std::vector<bool>& bits);
  /// Same through the IR path.
  std::vector<bool> shift_ir(const std::vector<bool>& bits);

  /// Loads instruction `ir` into every DAP of the current scan path.
  void set_ir_all(std::uint8_t ir, int daps_in_path);

  /// Streams `words` into every DAP's attached memory starting at
  /// `base_addr` (all DAPs in the path receive the same image — the
  /// paper's broadcast-style program load; with one DAP in the path it is
  /// a plain single-core load).
  void write_words(std::uint32_t base_addr,
                   const std::vector<std::uint32_t>& words,
                   int daps_in_path);

  /// Streaming read-back: returns `count` words per DAP starting at
  /// `base_addr`; result[i] holds word i of every DAP in TDO-first order.
  std::vector<std::vector<std::uint32_t>> read_words(std::uint32_t base_addr,
                                                     int count,
                                                     int daps_in_path);

  /// Reads the IDCODEs visible on the current chain (after reset, every
  /// DAP's IR selects IDCODE).  `dap_count` is the number of DAPs in the
  /// scan path.  Ordering: the DAP nearest TDO comes out first.
  std::vector<std::uint32_t> read_idcodes(int dap_count);

 private:
  WaferTestChain* chain_;
  std::uint64_t tcks_ = 0;

  bool clock(bool tms, bool tdi);
};

}  // namespace wsp::testinfra
