#include "cores/sparse_memory.h"

#include <algorithm>

#include "base/types.h"

namespace pdat::cores {

SparseMemory::SparseMemory(std::size_t bytes)
    : bytes_(bytes), slot_(((bytes + sizeof(Page) - 1) >> kPageBits), 0) {
  if (bytes == 0) throw PdatError("testbench memory: size must be positive");
}

std::uint8_t SparseMemory::read8(std::uint32_t addr) const {
  const std::size_t a = addr % bytes_;
  const std::uint32_t s = slot_[a >> kPageBits];
  return s == 0 ? 0 : pages_[s - 1][a & (sizeof(Page) - 1)];
}

void SparseMemory::write8(std::uint32_t addr, std::uint8_t value) {
  const std::size_t a = addr % bytes_;
  std::uint32_t& s = slot_[a >> kPageBits];
  if (s == 0) {
    pages_.emplace_back();  // value-initialized: all zeros
    s = static_cast<std::uint32_t>(pages_.size());
  }
  pages_[s - 1][a & (sizeof(Page) - 1)] = value;
}

std::uint32_t SparseMemory::read32(std::uint32_t addr) const {
  std::uint32_t v = 0;
  for (std::uint32_t k = 0; k < 4; ++k) v |= static_cast<std::uint32_t>(read8(addr + k)) << (8 * k);
  return v;
}

void SparseMemory::clear() {
  std::fill(slot_.begin(), slot_.end(), 0);
  pages_.clear();
}

}  // namespace pdat::cores
