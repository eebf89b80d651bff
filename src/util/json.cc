/**
 * @file
 * JSON string escaping (see json.h).
 */

#include "util/json.h"

#include <cstdio>

namespace edb {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if ((unsigned char)c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              (unsigned)(unsigned char)c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace edb
