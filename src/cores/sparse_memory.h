// Byte-addressed testbench memory stored as pages allocated on first write.
//
// Addresses wrap modulo the memory size, and bytes never written read as 0,
// exactly like a zero-filled flat array of that size. A program touches a
// handful of pages, so each simulation lane of a testbench can own one
// memory without the cost of a full-size array per lane, and clearing it
// zeroes a page table instead of the whole size.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pdat::cores {

class SparseMemory {
 public:
  explicit SparseMemory(std::size_t bytes);

  std::uint8_t read8(std::uint32_t addr) const;
  void write8(std::uint32_t addr, std::uint8_t value);
  /// Little-endian word at addr..addr+3 (each byte address wraps).
  std::uint32_t read32(std::uint32_t addr) const;

  /// Back to all zeros.
  void clear();

 private:
  static constexpr unsigned kPageBits = 12;
  using Page = std::array<std::uint8_t, std::size_t{1} << kPageBits>;

  std::size_t bytes_;
  std::vector<std::uint32_t> slot_;  // page number -> index into pages_ + 1; 0 = unwritten
  std::vector<Page> pages_;          // capacity is kept across clear()
};

}  // namespace pdat::cores
