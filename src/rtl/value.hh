/**
 * @file
 * Fixed-width bit-vector value type used by the concrete RTL simulator and
 * by constant folding. Widths are 1..64 bits; all arithmetic is modulo the
 * width, matching Verilog semantics for the synthesizable subset we model.
 */

#ifndef COPPELIA_RTL_VALUE_HH
#define COPPELIA_RTL_VALUE_HH

#include <cstdint>
#include <string>

#include "util/logging.hh"

namespace coppelia::rtl
{

/** Maximum supported signal width in bits. */
constexpr int MaxWidth = 64;

/** Mask covering the low @p width bits. */
constexpr std::uint64_t
widthMask(int width)
{
    return width >= 64 ? ~0ull : ((1ull << width) - 1);
}

/**
 * A bit-vector value of explicit width. The stored bits are always kept
 * masked to the width, so equality and hashing are structural.
 */
class Value
{
  public:
    /** Default: 1-bit zero. */
    Value() : width_(1), bits_(0) {}

    /** Construct from raw bits; bits above the width are discarded. */
    Value(int width, std::uint64_t bits)
        : width_(width), bits_(bits & widthMask(width))
    {
        if (width < 1 || width > MaxWidth)
            panic("Value width out of range: ", width);
    }

    int width() const { return width_; }
    std::uint64_t bits() const { return bits_; }

    /** Interpret as unsigned. */
    std::uint64_t toUint() const { return bits_; }

    /** Interpret as signed (two's complement over the width). */
    std::int64_t
    toInt() const
    {
        if (width_ == 64)
            return static_cast<std::int64_t>(bits_);
        const std::uint64_t sign = 1ull << (width_ - 1);
        if (bits_ & sign)
            return static_cast<std::int64_t>(bits_ - (sign << 1));
        return static_cast<std::int64_t>(bits_);
    }

    /** True iff any bit is set. */
    bool isTrue() const { return bits_ != 0; }

    /** Extract bit @p idx (0 = LSB). */
    bool
    bit(int idx) const
    {
        if (idx < 0 || idx >= width_)
            panic("Value::bit index ", idx, " out of width ", width_);
        return (bits_ >> idx) & 1;
    }

    bool operator==(const Value &o) const
    {
        return width_ == o.width_ && bits_ == o.bits_;
    }
    bool operator!=(const Value &o) const { return !(*this == o); }

    /** Render as width'hXX (Verilog-style). */
    std::string toString() const;

    /** 1-bit constants. */
    static Value one() { return Value(1, 1); }
    static Value zero() { return Value(1, 0); }

  private:
    int width_;
    std::uint64_t bits_;
};

} // namespace coppelia::rtl

#endif // COPPELIA_RTL_VALUE_HH
