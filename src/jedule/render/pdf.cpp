#include "jedule/render/pdf.hpp"

#include "jedule/render/deflate.hpp"
#include "jedule/util/strings.hpp"

namespace jedule::render {

namespace {
std::string num(double v) {
  std::string s = util::format_fixed(v, 2);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s.empty() ? "0" : s;
}

std::string rgb(color::Color c) {
  return num(c.r / 255.0) + " " + num(c.g / 255.0) + " " + num(c.b / 255.0);
}

std::string pdf_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '(' || c == ')' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}
}  // namespace

PdfCanvas::PdfCanvas(int width, int height) : width_(width), height_(height) {}

void PdfCanvas::fill_rect(double x, double y, double w, double h,
                          color::Color c) {
  content_ += rgb(c) + " rg " + num(x) + " " + num(flip(y + h)) + " " +
              num(w) + " " + num(h) + " re f\n";
}

void PdfCanvas::stroke_rect(double x, double y, double w, double h,
                            color::Color c) {
  content_ += rgb(c) + " RG " + num(x) + " " + num(flip(y + h)) + " " +
              num(w) + " " + num(h) + " re S\n";
}

void PdfCanvas::line(double x0, double y0, double x1, double y1,
                     color::Color c) {
  content_ += rgb(c) + " RG " + num(x0) + " " + num(flip(y0)) + " m " +
              num(x1) + " " + num(flip(y1)) + " l S\n";
}

void PdfCanvas::text(double x, double y, std::string_view text,
                     color::Color c, int size) {
  content_ += "BT /F1 " + std::to_string(size) + " Tf " + rgb(c) + " rg " +
              num(x) + " " + num(flip(y + size * 0.8)) + " Td (" +
              pdf_escape(text) + ") Tj ET\n";
}

double PdfCanvas::text_width(std::string_view text, int size) const {
  // Helvetica averages ~0.55 em per character; close enough for fitting.
  return static_cast<double>(text.size()) * size * 0.55;
}

double PdfCanvas::text_height(int size) const { return size; }

std::string PdfCanvas::finish(int threads) const {
  // Objects: 1 catalog, 2 pages, 3 page, 4 contents, 5 font.
  const auto z = zlib_compress(
      reinterpret_cast<const std::uint8_t*>(content_.data()),
      content_.size(), threads);
  const std::string packed(reinterpret_cast<const char*>(z.data()),
                           z.size());
  std::string objects[6];
  objects[1] = "<< /Type /Catalog /Pages 2 0 R >>";
  objects[2] = "<< /Type /Pages /Kids [3 0 R] /Count 1 >>";
  objects[3] = "<< /Type /Page /Parent 2 0 R /MediaBox [0 0 " +
               std::to_string(width_) + " " + std::to_string(height_) +
               "] /Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >>";
  objects[4] = "<< /Length " + std::to_string(packed.size()) +
               " /Filter /FlateDecode >>\nstream\n" + packed +
               "\nendstream";
  objects[5] =
      "<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>";

  std::string out = "%PDF-1.4\n";
  std::size_t offsets[6] = {0, 0, 0, 0, 0, 0};
  for (int i = 1; i <= 5; ++i) {
    offsets[i] = out.size();
    out += std::to_string(i) + " 0 obj\n" + objects[i] + "\nendobj\n";
  }
  const std::size_t xref = out.size();
  out += "xref\n0 6\n0000000000 65535 f \n";
  for (int i = 1; i <= 5; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%010zu 00000 n \n", offsets[i]);
    out += buf;
  }
  out += "trailer\n<< /Size 6 /Root 1 0 R >>\nstartxref\n" +
         std::to_string(xref) + "\n%%EOF\n";
  return out;
}

}  // namespace jedule::render
