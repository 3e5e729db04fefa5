#include "src/numeric/bigint.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace lplow {

namespace {
constexpr uint64_t kBase = 1ULL << 32;
}  // namespace

BigInt::BigInt(int64_t v) {
  if (v == 0) return;
  negative_ = v < 0;
  // Careful with INT64_MIN: negate in unsigned arithmetic.
  uint64_t mag = negative_ ? ~static_cast<uint64_t>(v) + 1 : static_cast<uint64_t>(v);
  limbs_.push_back(static_cast<uint32_t>(mag & 0xffffffffULL));
  if (mag >> 32) limbs_.push_back(static_cast<uint32_t>(mag >> 32));
}

void BigInt::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

int BigInt::CompareMagnitude(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<uint32_t> BigInt::AddMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(std::max(a.size(), b.size()) + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    uint64_t sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out.push_back(static_cast<uint32_t>(sum & 0xffffffffULL));
    carry = sum >> 32;
  }
  if (carry) out.push_back(static_cast<uint32_t>(carry));
  return out;
}

std::vector<uint32_t> BigInt::SubMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  // Pre-condition: |a| >= |b|.
  std::vector<uint32_t> out;
  out.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<uint32_t>(diff));
  }
  LPLOW_CHECK_EQ(borrow, 0);
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<uint32_t> BigInt::MulMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint32_t> out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = static_cast<uint64_t>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint32_t>(cur & 0xffffffffULL);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry) {
      uint64_t cur = out[k] + carry;
      out[k] = static_cast<uint32_t>(cur & 0xffffffffULL);
      carry = cur >> 32;
      ++k;
    }
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

void BigInt::DivModMagnitude(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b,
                             std::vector<uint32_t>* quot,
                             std::vector<uint32_t>* rem) {
  LPLOW_CHECK(!b.empty());
  quot->clear();
  rem->clear();
  if (CompareMagnitude(a, b) < 0) {
    *rem = a;
    return;
  }
  if (b.size() == 1) {
    // Short division by a single limb.
    uint64_t divisor = b[0];
    quot->assign(a.size(), 0);
    uint64_t r = 0;
    for (size_t i = a.size(); i-- > 0;) {
      uint64_t cur = (r << 32) | a[i];
      (*quot)[i] = static_cast<uint32_t>(cur / divisor);
      r = cur % divisor;
    }
    while (!quot->empty() && quot->back() == 0) quot->pop_back();
    if (r) rem->push_back(static_cast<uint32_t>(r));
    return;
  }

  // Knuth Algorithm D. Normalize so that the top limb of the divisor has its
  // high bit set.
  int shift = 0;
  uint32_t top = b.back();
  while (!(top & 0x80000000u)) {
    top <<= 1;
    ++shift;
  }
  auto shl = [shift](const std::vector<uint32_t>& v) {
    if (shift == 0) return v;
    std::vector<uint32_t> out(v.size() + 1, 0);
    for (size_t i = 0; i < v.size(); ++i) {
      out[i] |= v[i] << shift;
      out[i + 1] = static_cast<uint32_t>(static_cast<uint64_t>(v[i]) >>
                                         (32 - shift));
    }
    while (!out.empty() && out.back() == 0) out.pop_back();
    return out;
  };
  std::vector<uint32_t> u = shl(a);
  std::vector<uint32_t> v = shl(b);
  size_t n = v.size();
  size_t m = u.size() - n;
  u.push_back(0);  // u has m + n + 1 limbs.
  quot->assign(m + 1, 0);

  for (size_t j = m + 1; j-- > 0;) {
    uint64_t numerator = (static_cast<uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    uint64_t qhat = numerator / v[n - 1];
    uint64_t rhat = numerator % v[n - 1];
    while (qhat >= kBase ||
           (n >= 2 && qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2]))) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }
    // Multiply-subtract qhat * v from u[j .. j+n].
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      int64_t t = static_cast<int64_t>(u[i + j]) -
                  static_cast<int64_t>(p & 0xffffffffULL) - borrow;
      if (t < 0) {
        t += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<uint32_t>(t);
    }
    int64_t t = static_cast<int64_t>(u[j + n]) - static_cast<int64_t>(carry) -
                borrow;
    if (t < 0) {
      // qhat was one too large: add back.
      t += static_cast<int64_t>(kBase);
      --qhat;
      uint64_t c2 = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t s = static_cast<uint64_t>(u[i + j]) + v[i] + c2;
        u[i + j] = static_cast<uint32_t>(s & 0xffffffffULL);
        c2 = s >> 32;
      }
      t += static_cast<int64_t>(c2);
      t &= static_cast<int64_t>(kBase) - 1;
    }
    u[j + n] = static_cast<uint32_t>(t);
    (*quot)[j] = static_cast<uint32_t>(qhat);
  }
  while (!quot->empty() && quot->back() == 0) quot->pop_back();
  // Denormalize the remainder.
  u.resize(n);
  if (shift) {
    for (size_t i = 0; i < n; ++i) {
      uint32_t hi = (i + 1 < n) ? u[i + 1] : 0;
      u[i] = (u[i] >> shift) |
             static_cast<uint32_t>(static_cast<uint64_t>(hi) << (32 - shift));
    }
  }
  while (!u.empty() && u.back() == 0) u.pop_back();
  *rem = std::move(u);
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::Abs() const {
  BigInt out = *this;
  out.negative_ = false;
  return out;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  if (negative_ == o.negative_) {
    out.limbs_ = AddMagnitude(limbs_, o.limbs_);
    out.negative_ = negative_;
  } else {
    int cmp = CompareMagnitude(limbs_, o.limbs_);
    if (cmp == 0) return BigInt();
    if (cmp > 0) {
      out.limbs_ = SubMagnitude(limbs_, o.limbs_);
      out.negative_ = negative_;
    } else {
      out.limbs_ = SubMagnitude(o.limbs_, limbs_);
      out.negative_ = o.negative_;
    }
  }
  out.Trim();
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const { return *this + (-o); }

BigInt BigInt::operator*(const BigInt& o) const {
  BigInt out;
  out.limbs_ = MulMagnitude(limbs_, o.limbs_);
  out.negative_ = !out.limbs_.empty() && (negative_ != o.negative_);
  return out;
}

void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* quot,
                    BigInt* rem) {
  LPLOW_CHECK(!b.is_zero());
  BigInt q, r;
  DivModMagnitude(a.limbs_, b.limbs_, &q.limbs_, &r.limbs_);
  q.negative_ = !q.limbs_.empty() && (a.negative_ != b.negative_);
  r.negative_ = !r.limbs_.empty() && a.negative_;
  q.Trim();
  r.Trim();
  if (quot) *quot = std::move(q);
  if (rem) *rem = std::move(r);
}

BigInt BigInt::operator/(const BigInt& o) const {
  BigInt q;
  DivMod(*this, o, &q, nullptr);
  return q;
}

BigInt BigInt::operator%(const BigInt& o) const {
  BigInt r;
  DivMod(*this, o, nullptr, &r);
  return r;
}

int BigInt::Compare(const BigInt& o) const {
  if (negative_ != o.negative_) return negative_ ? -1 : 1;
  int mag = CompareMagnitude(limbs_, o.limbs_);
  return negative_ ? -mag : mag;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

std::string BigInt::ToString() const {
  if (is_zero()) return "0";
  // Repeatedly divide by 1e9 and collect 9-digit chunks.
  std::vector<uint32_t> mag = limbs_;
  std::string out;
  while (!mag.empty()) {
    uint64_t r = 0;
    for (size_t i = mag.size(); i-- > 0;) {
      uint64_t cur = (r << 32) | mag[i];
      mag[i] = static_cast<uint32_t>(cur / 1000000000ULL);
      r = cur % 1000000000ULL;
    }
    while (!mag.empty() && mag.back() == 0) mag.pop_back();
    for (int i = 0; i < 9; ++i) {
      out.push_back(static_cast<char>('0' + r % 10));
      r /= 10;
    }
  }
  while (out.size() > 1 && out.back() == '0') out.pop_back();
  if (negative_) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

BigInt BigInt::FromString(const std::string& s) {
  BigInt out;
  LPLOW_CHECK(TryParse(s, &out));
  return out;
}

bool BigInt::TryParse(const std::string& s, BigInt* out) {
  *out = BigInt();
  size_t i = 0;
  bool neg = false;
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) {
    neg = s[i] == '-';
    ++i;
  }
  if (i >= s.size()) return false;
  BigInt acc;
  const BigInt ten(10);
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    acc = acc * ten + BigInt(s[i] - '0');
  }
  if (neg && !acc.is_zero()) acc.negative_ = true;
  *out = std::move(acc);
  return true;
}

double BigInt::ToDouble() const {
  double out = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    out = out * static_cast<double>(kBase) + static_cast<double>(limbs_[i]);
  }
  return negative_ ? -out : out;
}

bool BigInt::FitsInt64() const {
  if (limbs_.size() > 2) return false;
  uint64_t mag = 0;
  if (limbs_.size() >= 1) mag = limbs_[0];
  if (limbs_.size() == 2) mag |= static_cast<uint64_t>(limbs_[1]) << 32;
  if (negative_) return mag <= (1ULL << 63);
  return mag < (1ULL << 63);
}

int64_t BigInt::ToInt64() const {
  LPLOW_CHECK(FitsInt64());
  uint64_t mag = 0;
  if (limbs_.size() >= 1) mag = limbs_[0];
  if (limbs_.size() == 2) mag |= static_cast<uint64_t>(limbs_[1]) << 32;
  // Negate in uint64_t: -2^63 has no positive int64_t counterpart.
  return static_cast<int64_t>(negative_ ? 0 - mag : mag);
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  size_t bits = (limbs_.size() - 1) * 32;
  uint32_t top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

}  // namespace lplow
