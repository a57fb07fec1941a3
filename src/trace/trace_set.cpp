#include "trace/trace_set.hpp"

#include <stdexcept>

namespace rftc::trace {

TraceSet::TraceSet(std::size_t n_samples) : n_samples_(n_samples) {
  if (n_samples == 0) throw std::invalid_argument("TraceSet: zero samples");
}

void TraceSet::add(std::vector<float> trace, const aes::Block& plaintext,
                   const aes::Block& ciphertext) {
  if (trace.size() != n_samples_)
    throw std::invalid_argument("TraceSet::add: sample count mismatch");
  data_.insert(data_.end(), trace.begin(), trace.end());
  plaintexts_.push_back(plaintext);
  ciphertexts_.push_back(ciphertext);
}

void TraceSet::reserve(std::size_t n) {
  data_.reserve(n * n_samples_);
  plaintexts_.reserve(n);
  ciphertexts_.reserve(n);
}

void TraceSet::append(const TraceSet& other) {
  if (other.n_samples_ != n_samples_)
    throw std::invalid_argument("TraceSet::append: sample count mismatch");
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  plaintexts_.insert(plaintexts_.end(), other.plaintexts_.begin(),
                     other.plaintexts_.end());
  ciphertexts_.insert(ciphertexts_.end(), other.ciphertexts_.begin(),
                      other.ciphertexts_.end());
}

std::span<const float> TraceSet::trace(std::size_t i) const {
  return {data_.data() + i * n_samples_, n_samples_};
}

std::vector<double> TraceSet::mean_trace() const {
  std::vector<double> mean(n_samples_, 0.0);
  if (size() == 0) return mean;
  for (std::size_t i = 0; i < size(); ++i) {
    const auto t = trace(i);
    for (std::size_t s = 0; s < n_samples_; ++s) mean[s] += t[s];
  }
  for (double& v : mean) v /= static_cast<double>(size());
  return mean;
}

TraceSet TraceSet::downsampled(std::size_t factor) const {
  if (factor == 0) throw std::invalid_argument("TraceSet::downsampled");
  const std::size_t out_samples = n_samples_ / factor;
  if (out_samples == 0)
    throw std::invalid_argument("TraceSet::downsampled: factor too large");
  TraceSet out(out_samples);
  std::vector<float> buf(out_samples);
  for (std::size_t i = 0; i < size(); ++i) {
    box_average(trace(i), factor, buf);
    out.add(buf, plaintexts_[i], ciphertexts_[i]);
  }
  return out;
}

void box_average(std::span<const float> in, std::size_t factor,
                 std::span<float> out) {
  for (std::size_t s = 0; s < out.size(); ++s) {
    double acc = 0.0;
    for (std::size_t k = 0; k < factor; ++k) acc += in[s * factor + k];
    out[s] = static_cast<float>(acc / static_cast<double>(factor));
  }
}

}  // namespace rftc::trace
