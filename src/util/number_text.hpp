// Number text for every artefact the library writes (JSON, CSV, the
// quantum stream, Prometheus exposition, checkpoint diagnostics): one
// formatter, so the digits a value prints as are decided in one place.
#pragma once

#include <string>

namespace dike::util {

/// Append `value` exactly as printf("%.<precision>g") prints it in the C
/// locale ("inf", "-inf", "nan" and "-nan" included), via
/// std::to_chars(general, precision): byte-identical to the printf form,
/// several times faster, and independent of LC_NUMERIC. `precision` is
/// the number of significant digits, 1..17.
void appendGeneral(std::string& out, double value, int precision);

}  // namespace dike::util
