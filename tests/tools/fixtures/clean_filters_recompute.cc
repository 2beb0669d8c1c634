// gsgrow-fixture: path=src/postprocess/widget.cc expect=
// Clean: the filter consumes the annotations the mining pass recorded.
#include "core/mining_result.h"

int CountLandmarks(const gsgrow::PatternRow& r) {
  return static_cast<int>(r.annotations.landmarks.size());
}
