// Parameter registry: named trainable tensors with flattening and
// (de)serialization — the unit of exchange in federated aggregation.
#ifndef LIGHTTR_NN_PARAMETER_H_
#define LIGHTTR_NN_PARAMETER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "nn/tensor.h"

namespace lighttr::nn {

/// An ordered collection of named parameters (trainable leaf tensors).
///
/// Models register their parameters at construction; the FL layer uses
/// Flatten/AssignFlat to average models, and Serialize/Deserialize as
/// the wire format (float32 on the wire, as a real deployment would use,
/// so communication byte counts are realistic).
class ParameterSet {
 public:
  ParameterSet() = default;

  /// Registers a parameter under a unique name. The tensor must be a
  /// gradient-requiring leaf (created via Tensor::Variable).
  void Register(std::string name, Tensor tensor);

  size_t size() const { return items_.size(); }
  const std::string& name(size_t i) const { return items_[i].first; }
  const Tensor& tensor(size_t i) const { return items_[i].second; }

  /// Finds a parameter by name; CHECK-fails when missing.
  const Tensor& Get(const std::string& name) const;

  /// Total number of scalar weights.
  int64_t NumScalars() const;

  /// Copies all parameter values into one contiguous vector.
  std::vector<Scalar> Flatten() const;

  /// Writes `flat` back into the parameters (inverse of Flatten).
  void AssignFlat(const std::vector<Scalar>& flat);

  /// Zeroes every parameter gradient.
  void ZeroGrads();

  /// Serialized size in bytes of the float32 wire format.
  int64_t WireBytes() const;

  /// Serializes names, shapes, and float32 values.
  std::string Serialize() const;

  /// Restores values from Serialize() output. The parameter names and
  /// shapes must match this set exactly.
  [[nodiscard]] Status Deserialize(const std::string& bytes);

 private:
  std::vector<std::pair<std::string, Tensor>> items_;
};

/// Element-wise average of several flattened parameter vectors — the
/// FedAvg aggregation rule (Algorithm 3 line 11). Returns an empty
/// vector for an empty input set (a fully failed round); callers keep
/// their previous parameters in that case. See fl::AggregateFlat for
/// the robust (median / trimmed-mean) variants with Status reporting.
std::vector<Scalar> AverageFlat(const std::vector<std::vector<Scalar>>& flats);

}  // namespace lighttr::nn

#endif  // LIGHTTR_NN_PARAMETER_H_
