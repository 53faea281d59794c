#ifndef ERRORFLOW_NN_CALIBRATION_H_
#define ERRORFLOW_NN_CALIBRATION_H_

#include <cstdint>

namespace errorflow {
namespace nn {

class Layer;

/// \brief Observer of the exact matrices linear layers feed their GEMMs,
/// used by calibration-based quantizers (src/quant/optq.h) to accumulate
/// per-layer input Grams without re-implementing the forward pass.
///
/// DenseLayer reports its input batch: `data` is row-major (n, d) with
/// features in columns (`features_are_rows == false`, d = in_features).
/// Conv2dLayer reports the batched im2col column matrix its convolution
/// multiplies the kernel matrix against: row-major (d, n) with features in rows (`features_are_rows == true`,
/// d = in_channels * k * k, n = batch * oh * ow). In both layouts the
/// layer's input Gram is the d x d matrix summing outer products of the
/// feature vectors.
class CalibrationObserver {
 public:
  virtual ~CalibrationObserver() = default;
  virtual void OnLinearInput(const Layer* layer, const float* data,
                             int64_t d, int64_t n,
                             bool features_are_rows) = 0;
};

/// Installs a *thread-local* observer (nullptr clears); returns the
/// previous one. Calibration instruments only the Forward calls made by
/// the installing thread: install, run Forward on the calibration batch
/// on the same thread, restore. Forwards running concurrently on other
/// threads (live serving batches, a second calibration) never see this
/// observer, so calibrating on a scheduler worker while peers serve
/// traffic is safe by construction. Layers invoke the observer from the
/// thread that called Forward — internal kernel parallelism never
/// re-enters it. The inference hot path pays one thread-local load when
/// no observer is installed.
CalibrationObserver* SetCalibrationObserver(CalibrationObserver* observer);

/// The observer installed on the calling thread, or nullptr.
CalibrationObserver* GetCalibrationObserver();

}  // namespace nn
}  // namespace errorflow

#endif  // ERRORFLOW_NN_CALIBRATION_H_
