#!/usr/bin/env bash
# Checks the `raagv` console script found on PATH byte for byte: graph6 and
# edge-list input print alike, sha256 pins on the output of seeded graphs and
# words, the counts of the exhaustive sweeps, exit codes and error texts.  The
# `python` on PATH must import the same raagv.
#
# Usage: tests/installed_checks.sh <workdir>
# It writes its files into <workdir> and stops at the first failing check.
set -eo pipefail
cd "$1"
raagv random --n 300 --nb --seed 1 > g.el
python -c 'from raagv import emit_graph6, parse_edge_list; print(emit_graph6(parse_edge_list(open("g.el").read())[0]))' > g.g6
raagv classify g.el --json > el.json
raagv classify g.g6 --format graph6 --json > g6.json
cmp el.json g6.json
# the other three file subcommands print the same from either format
raagv partition g.el > el.part
raagv partition g.g6 --format graph6 > g6.part
cmp el.part g6.part
raagv decompose g.el > el.group
raagv decompose g.g6 --format graph6 > g6.group
cmp el.group g6.group
raagv word g.el 1 2 -1 -2 > el.word
raagv word g.g6 --format graph6 1 2 -1 -2 > g6.word
cmp el.word g6.word
# the word solver prints the bytes it printed before it read letters through a table:
# 200 seeded words of up to 400 letters on g.el, one per line from stdin, from either format
python -c 'import random; r = random.Random(5); print("\n".join(" ".join(str(r.choice((1, -1)) * r.randint(1, 300)) for _ in range(r.randint(0, 400))) for _ in range(200)))' > words.txt
raagv word g.el - < words.txt > el.words
raagv word g.g6 --format graph6 - < words.txt > g6.words
cmp el.words g6.words
echo "8d18ebeea9d03bd344a1273324b754a0070d93ddb9cc09817f765642d099bb23  el.words" | sha256sum --check --strict -
# the edge-list parser splits g.el's chunks whole, reads the chunks of an indented copy
# and the one that holds a comment line mid-body line by line, and ends lines at CR LF
# and at CR alone as at LF; the byte-order mark of a BOM copy is dropped as the file is
# decoded; all seven files must print the same
sed 's/^/ /' g.el > indented.el
{ echo '# comment'; cat g.el; } > commented.el
sed '200i # mid' g.el > midcomment.el
sed 's/$/\r/' g.el > crlf.el
tr '\n' '\r' < g.el > cr.el
{ printf '\357\273\277'; cat g.el; } > bom.el
for f in indented commented midcomment crlf cr bom; do
  raagv classify "$f.el" --json > "$f.json"
  cmp el.json "$f.json"
  raagv partition "$f.el" > "$f.part"
  cmp el.part "$f.part"
done
# a copy with every vertex renamed v<number> goes through the label pass, which indexes
# each label as it reads it: the bytes it printed when it kept a list of the raw edges,
# and with a loop appended, exit 2 naming the loop's line
sed -E 's/^e ([0-9]+) ([0-9]+)$/e v\1 v\2/' g.el > lab.el
raagv partition lab.el > lab.part
raagv classify lab.el --json > lab.json
raagv decompose lab.el > lab.group
printf '%s\n' \
  "0569b7bdbc2211392a4a77054e145cb0cddc84bb80292fc072a9e1e9190abe48  lab.part" \
  "060d7140d870ae52a22c69907571428cd7021274ce9b779c7557d10399b4624e  lab.json" \
  "2f40438d9a622c6d2c28e3dee2f39616d90a7462ea2f5bae9a97f2a77ecdf2e9  lab.group" |
  sha256sum --check --strict -
{ cat lab.el; echo 'e v5 v5'; } > labloop.el
status=0
raagv classify labloop.el 2> labloop.err || status=$?
test "$status" -eq 2
test "$(cat labloop.err)" = "error: line 44221: loop edge on 'v5'"
# the edge-list and presentation writers and the least witness print the bytes they
# printed before each was rewritten to work per row: a pattern-free n = 300 graph,
# its decomposition, and classify on a copy with its last edge removed
raagv random --n 300 --nb --seed 7 > r7.el
raagv decompose r7.el > r7.group
sed '$d' r7.el > r7nm.el
status=0
raagv classify r7nm.el --json > r7nm.json || status=$?
test "$status" -eq 1
printf '%s\n' \
  "16bc78cd0effc5ef6cae21457464ebdf5ca4c0d06ea83b33cc57288e43ece295  r7.el" \
  "d2884e9f0f2b6690005af5fcc9e3c0893d9bbfcf83a5898d443d9616c8923121  r7.group" \
  "5a338479570ddea6fefef4d357bfed128bb73aaa7a2f7a6b06fa46e60cc40f03  r7nm.json" |
  sha256sum --check --strict -
# a larger least witness, found past the triple scan's budget (spent at row 1), where
# the scan skips twin rows and takes each row's cheaper side: (273, 998, 999)
raagv random --n 1000 --nb --seed 1000 | sed '$d' > r1000nm.el
status=0
raagv classify r1000nm.el --json > r1000nm.json || status=$?
test "$status" -eq 1
echo "6ed20e623035f55d7e4b70a96bc098b1292bcbda981c0246448b8b409e57ee7f  r1000nm.json" | sha256sum --check --strict -
# past the enumeration cap: exit 2 at once, not after the sweeps below it
status=0
timeout 60 raagv enumerate --max-n 9 || status=$?
test "$status" -eq 2
# below it too
status=0
raagv enumerate --max-n -1 || status=$?
test "$status" -eq 2
# the empty graph is pattern-free, so --nb prints it as well
raagv random --n 0 > plain.el
raagv random --n 0 --nb > nb.el
cmp plain.el nb.el
# the installed package's three deciders agree on all 33,867 graphs with n <= 6:
# Bell numbers pattern-free and partitionable, no mismatch
raagv enumerate --max-n 6 --json > enum.json
python -c 'import json; r = json.load(open("enum.json")); bell = [1, 2, 5, 15, 52, 203]; assert [x["nb_count"] for x in r] == [x["gp_count"] for x in r] == bell and all(x["mismatches"] == [] for x in r), r'
# the reports of n <= 5 print field by field the bytes that dataclasses.asdict gave them
raagv enumerate --max-n 5 --json > enum5.json
echo "4b596f6059e81e5bcb942d229da86fb12dfb4c85c5f5f8f017319e7ee28cb9b3  enum5.json" | sha256sum --check --strict -
# the counts above cannot see order or packing: pin the adjacency tuples of those
# graphs, in enumeration order, to the hash they had before rows were packed in bytes
python -c 'import hashlib, raagv; h = hashlib.sha256("\n".join(repr(g.adj) for n in range(7) for g in raagv.enumerate_graphs(n)).encode()).hexdigest(); assert h == "bfcd917ba84016a0f0a4a4321f9c1cf468198acf4e7819d1d0adceb986390116", h'
# and on all 2,097,152 graphs with n = 7, on every Python version (the slow pytest
# step runs on 3.12 only): Bell(7) = 877 pattern-free and partitionable, no mismatch
timeout 300 raagv enumerate --max-n 7 --json > enum7.json
python -c 'import json; r = json.load(open("enum7.json"))[-1]; assert r["n"] == 7 and r["nb_count"] == r["gp_count"] == 877 and r["mismatches"] == [], r'
# the installed package's star import binds exactly its __all__
python -c 'import raagv; ns = {}; exec("from raagv import *", ns); assert sorted(set(ns) - {"__builtins__"}) == sorted(raagv.__all__)'
