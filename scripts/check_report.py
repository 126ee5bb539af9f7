#!/usr/bin/env python3
"""Validate a coppelia-report post-mortem HTML document.

Usage:
    check_report.py REPORT.html

CI generates the report over the bench-smoke campaign and runs this
over it. Checks, each failing with a named reason:

  - the document parses as HTML with balanced non-void tags,
  - the six report sections are present by anchor id (jobs, queries,
    phases, rejections, coverage, consistency),
  - the jobs table has at least one data row,
  - the solver-time cross-check totals row carries a non-empty,
    non-zero query-log total (a zero total on a campaign that ran the
    solver means the forensics pipeline silently lost every record),
  - every <table> has a header row.

Exits non-zero with one line per failure.
"""

import re
import sys
from html.parser import HTMLParser

# Tags with no closing counterpart (the subset the renderer emits).
VOID_TAGS = {"meta", "br", "hr", "img", "link", "input", "circle"}

REQUIRED_SECTIONS = (
    "jobs",
    "queries",
    "phases",
    "rejections",
    "coverage",
    "consistency",
)


class ReportChecker(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.failures = []
        self.stack = []
        self.section_ids = set()
        self.tables = 0
        self.tables_with_header = 0

    def handle_starttag(self, tag, attrs):
        if tag not in VOID_TAGS:
            self.stack.append(tag)
        attrs = dict(attrs)
        if tag == "h2" or tag == "section":
            if "id" in attrs:
                self.section_ids.add(attrs["id"])
        if tag == "table":
            self.tables += 1
            self._table_has_header = False
        if tag == "th":
            self._table_has_header = True

    def handle_endtag(self, tag):
        if tag in VOID_TAGS:
            return
        if not self.stack:
            self.failures.append(f"closing </{tag}> with no open tag")
            return
        open_tag = self.stack.pop()
        if open_tag != tag:
            self.failures.append(
                f"mismatched tag: <{open_tag}> closed by </{tag}>")
        if tag == "table":
            if self._table_has_header:
                self.tables_with_header += 1
            else:
                self.failures.append("table without a header row")

    def close(self):
        super().close()
        # SVG elements self-close as XML; treat dangling ones leniently
        # but flag any structural HTML tag left open.
        dangling = [t for t in self.stack
                    if t not in ("polyline", "rect", "text", "svg")]
        if dangling:
            self.failures.append(f"unclosed tags at EOF: {dangling}")


def check(text):
    failures = []
    checker = ReportChecker()
    checker.feed(text)
    checker.close()
    failures.extend(checker.failures)

    for section in REQUIRED_SECTIONS:
        if section not in checker.section_ids:
            failures.append(f"missing section #{section}")

    if checker.tables == 0:
        failures.append("no tables rendered")

    # At least one data row in the jobs table: a row of <td> cells
    # between the #jobs anchor and the next section anchor.
    jobs = re.search(r'id="jobs".*?id="queries"', text, re.S)
    if jobs and "<td" not in jobs.group(0):
        failures.append("jobs table has no data rows")
    elif not jobs:
        failures.append("cannot delimit the jobs section")

    # The cross-check totals row must carry a non-zero query-log total;
    # "0us" there means the campaign solved but logged nothing.
    total = re.search(
        r'class="total"><td>total</td><td class="r">([^<]*)</td>', text)
    if not total:
        failures.append("no solver-time cross-check totals row")
    elif total.group(1).strip() in ("", "0us"):
        failures.append(
            f"query-log total is empty ({total.group(1)!r}): the "
            "forensics pipeline recorded no solver time")
    return failures


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as f:
        text = f.read()
    failures = check(text)
    for failure in failures:
        print(f"check_report: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"check_report: OK ({sys.argv[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
