/**
 * @file
 * The one JSON string escaper shared by every JSON writer in edb
 * (the obs snapshot, the METRICS report, the CLI's `--json` output).
 */

#ifndef EDB_UTIL_JSON_H
#define EDB_UTIL_JSON_H

#include <string>

namespace edb {

/**
 * Escape `s` for use inside a JSON string literal (the quotes are not
 * added). Quote and backslash get a backslash; newline, tab and
 * carriage return their short escapes; every other control byte
 * becomes `\u00XX`. Printable bytes pass through unchanged.
 */
std::string jsonEscape(const std::string &s);

} // namespace edb

#endif // EDB_UTIL_JSON_H
