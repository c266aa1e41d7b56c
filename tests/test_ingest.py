from __future__ import annotations

import json
import random
import re

import pytest

from renokit import ingest
from renokit.errors import DecodeError, EmptyAfterExtraction, SchemaError
from renokit.ingest import (
    Document,
    RawRecord,
    _drop_table_lines,
    _is_table_line,
    _markup_stripper,
    _strip_tokens,
    clean_text,
    ingest_stream,
    read_documents,
    records_from_path,
    strip_markup,
)
from renokit.jsonl import write_jsonl
from renokit.pipeline import run_ingest_stage, run_pipeline
from renokit.tokenizers import count_tokens

from fixture_data import cjk_text, write_pipeline_fixture
from oracles import extract_text


def rec(text: str, kind: str = "domain_website", sid: str = "r1") -> RawRecord:
    return RawRecord(source_id=sid, source_kind=kind, payload=text.encode("utf-8"))


class TestExtractText:
    def test_strips_tags_images_and_urls(self):
        doc = extract_text(rec("<p>墙面刷漆步骤 <img src='a.png'/> 见 http://example.com</p>"))
        assert doc.text == "墙面刷漆步骤 见"
        assert doc.status == "ingested"

    def test_plain_text_unchanged(self):
        assert extract_text(rec("abc")).text == "abc"

    def test_only_image_is_empty(self):
        with pytest.raises(EmptyAfterExtraction):
            extract_text(rec("<img src='x'/>"))

    def test_invalid_utf8(self):
        bad = RawRecord(source_id="b", source_kind="general", payload=b"\xff\xfe\x01")
        with pytest.raises(DecodeError):
            extract_text(bad)

    def test_table_regions_dropped_in_markup(self):
        doc = extract_text(rec("<p>正文内容在此处保留</p><table><tr><td>甲</td><td>乙</td></tr></table>"))
        assert "甲" not in doc.text
        assert "正文内容在此处保留" in doc.text

    def test_pipe_heavy_lines_dropped_in_plain_text(self):
        doc = extract_text(rec("这一行是正常的句子内容\n甲|乙|丙|丁\n结尾还有一行正常内容"))
        assert "甲|乙" not in doc.text
        assert "结尾还有一行正常内容" in doc.text

    def test_bare_www_removed(self):
        assert "www" not in extract_text(rec("详情见 www.example.com/page 处")).text

    def test_blank_line_runs_collapse(self):
        doc = extract_text(rec("第一段内容\n\n\n\n第二段内容"))
        assert doc.text == "第一段内容\n\n第二段内容"

    def test_doc_id_stable_and_kind_scoped(self):
        a = extract_text(rec("相同内容", kind="domain_book"))
        b = extract_text(rec("相同内容", kind="domain_book", sid="other"))
        c = extract_text(rec("相同内容", kind="general"))
        assert a.doc_id == b.doc_id
        assert a.doc_id != c.doc_id

    def test_counts_match_text(self):
        doc = extract_text(rec("厨房 design 改造"))
        assert doc.char_count == len(doc.text)
        assert doc.token_count == count_tokens(doc.text)

    def test_cleaning_is_idempotent_on_generated_corpus(self):
        rng = random.Random(3)
        snippets = [
            "<div><p>{}</p><img src='a.png'></div>",
            "{} 见 http://a.example.com/x?q=1 与 www.b.com 资料",
            "{}\n\n\n表格|数据|很多|竖线\n尾部内容继续",
            "<ul><li>{}</li><li>第二项 &amp; 附注</li></ul>",
            "纯文本 {} 且 3 < 5 是成立的",
        ]
        for i in range(40):
            body = cjk_text(rng, 30 + i)
            raw = snippets[i % len(snippets)].format(body)
            once = clean_text(raw)
            assert clean_text(once) == once


# --- markup: the regex scan against HTMLParser ------------------------------------


def html_parser_text(text: str) -> str:
    """What _MarkupStripper, the HTMLParser reading, makes of `text`."""
    parser = _markup_stripper()()
    parser.feed(text)
    parser.close()
    return parser.text()


TAGS = ["p", "div", "span", "a", "b", "li", "ul", "h1", "td", "th", "section", "br", "wbr", "img", "hr", "meta",
        "input", "table", "tr", "tbody", "head", "figure", "svg", "picture", "my-widget", "o:p"]
SPACES = [" ", "\n", "\t", "  ", "\r\n"]
ENTITIES = ["&amp;", "&lt;", "&gt;", "&nbsp;", "&quot;", "&copy;", "&#65;", "&#x4E2D;", "&#X4e2d;", "&#60;",
            "&#x26;", "&#0;", "&foo;", "&amp.x;", "&a-b;", "&ltp;", "&ltbr;", "&gtx;", "&ampx;", "&copyx;"]


def any_case(rng: random.Random, name: str) -> str:
    return rng.choice([name, name.upper(), name.capitalize()])


def prose(rng: random.Random) -> str:
    words = [cjk_text(rng, rng.randint(1, 12)), "design", "a > b", "'q'", '"r"', "x|y", "\t", "\n", " ", "=",
             "http://a.example.com/x?q=1", "。", "\u3000", "\xa0"]
    return "".join(rng.choice(words) for _ in range(rng.randint(1, 4)))


def attributes(rng: random.Random) -> str:
    out = ""
    for _ in range(rng.randint(0, 3)):
        name = rng.choice(["class", "id", "data-x", "href", "alt", "disabled", "xml:lang", "CLASS"])
        value = rng.choice([
            "", '="{}"'.format(rng.choice(["", "a b", "中文", "/img/1.png", "x&amp;y", "a=b", "it's"])),
            "='{}'".format(rng.choice(["", "a b", 'say "hi"', "x&y"])),
            # a bare value that "/" follows is outside the subset: HTMLParser reads the "/" into it
            "={}{}".format(rng.choice(["x", "12", "a-b", "中文", "a.b"]), rng.choice(SPACES)),
            ' = "spaced"',
        ])
        out += rng.choice(SPACES) + name + value
    return out + rng.choice(["", "", " ", "\n"])


def token(rng: random.Random) -> str:
    """One piece of the markup subset the regex scan reads."""
    kind = rng.randrange(9)
    if kind <= 2:
        return prose(rng)
    if kind == 3:
        return rng.choice(ENTITIES)
    if kind in (4, 5):
        name = any_case(rng, rng.choice(TAGS))
        return f"<{name}{attributes(rng)}{rng.choice(['>', '>', '/>', ' />'])}"
    if kind == 6:
        return f"</{any_case(rng, rng.choice(TAGS))}{rng.choice(['', ' ', chr(10)])}>"
    if kind == 7:
        return rng.choice(["<!-- 注释 <p> -->", "<!---->", "<!-- a - b -->", "<!---x-->"])
    name = any_case(rng, rng.choice(["script", "style", "title", "textarea", "xmp", "iframe", "noscript"]))
    body = prose(rng).replace("&", "")
    if name.lower() in ("script", "style"):
        body += rng.choice(["", "if (a && b) { go(); }", "x = '&amp;';"])
    return f"<{name}{attributes(rng)}>{body}</{name}>"


# Each is outside the subset, so a document holding one goes to HTMLParser.
FALLBACK_TRIGGERS = [
    "3 < 5", "A & B", "<!DOCTYPE html>", "<?xml version=\"1.0\"?>", "&amp x", "&#65x", "&#x;", "&nbsp",
    '<a title="a>b">', "<script>if (a<b) go();</script>", "<style>p<a</style>", "<![CDATA[x<y]]>",
    "<SCRIPT>x</script>", "<script/>", "<!-- a -- b -->", "<!-->x-->", "<!--->x-->", "<title>a &amp; b</title>",
    "<title>a<b>c</title>", "<plaintext>x", "</ p>", "<p\v>", "<a href=x/>", '<p a="b"c>', "<p/ >", "<ſcript>",
    "& ", "< ", "</ ", "&ltp>", "&ltdiv x",
]
AT_END_TRIGGERS = ['<p class="x', "<script>var a;", "<!-- open", "<div", "&#12"]


def subset_document(rng: random.Random) -> list[str]:
    pieces = [token(rng) for _ in range(rng.randint(1, 25))]
    if rng.random() < 0.3:  # nested drop regions
        at = rng.randrange(len(pieces) + 1)
        pieces[at:at] = ["<head><table><tr><td>", token(rng), "</td></tr></table>", token(rng), "</head>"]
    return pieces


class TestMarkupScan:
    SEED_DOCS = 400

    def documents(self):
        rng = random.Random(15)
        # One document with every piece the scan must read, then seeded ones.
        every = ["<P>", "大写标签", "</P>", "<p/>", "甲<br/>乙<BR>", *ENTITIES, "<Head><TABLE>", "表", "</table>",
                 "</HEAD>", "混合 CJK text"]
        yield "".join(every), True
        for _ in range(self.SEED_DOCS):
            pieces = subset_document(rng)
            yield "".join(pieces), True
            at = rng.randrange(len(pieces) + 1)
            yield "".join(pieces[:at] + [rng.choice(FALLBACK_TRIGGERS)] + pieces[at:]), False
            yield "".join(pieces + [rng.choice(AT_END_TRIGGERS)]), False

    def test_matches_html_parser_on_generated_markup(self):
        for text, in_subset in self.documents():
            expected = html_parser_text(text)
            assert (_strip_tokens(text) is not None) == in_subset, text
            assert strip_markup(text) == expected, text

    @pytest.mark.parametrize("trigger", FALLBACK_TRIGGERS + AT_END_TRIGGERS)
    def test_each_trigger_goes_to_html_parser(self, trigger):
        text = f"<p>正文</p>{trigger}"
        assert _strip_tokens(text) is None
        assert strip_markup(text) == html_parser_text(text)

    def test_cleaning_is_idempotent_on_generated_markup(self):
        for text, _ in self.documents():
            once = clean_text(text)
            assert clean_text(once) == once, text

    def test_bench_shaped_page_takes_the_scan(self, monkeypatch):
        page = ('<html><head><title>瓷砖铺贴</title>'
                '<script>var page = "7"; track(page);</script></head>\n'
                '<body><h1>瓷砖铺贴 第00007号</h1>\n'
                '<p>先清理基层，再弹线定位。</p>\n'
                '<img src="/img/7.png" alt="瓷砖铺贴"/>'
                '<p>铺贴后养护七天 详见 https://www.example.com/item/7.html 。</p>\n'
                '<table><tr><td>规格</td><td>600x600</td></tr></table>\n'
                '<p>本站内容仅供参考。</p></body></html>')
        plain = "第一段没有任何标记的中文内容。\n\n第二段 design 内容。"

        def refuse(self, data):
            raise AssertionError("HTMLParser was used")

        monkeypatch.setattr(_markup_stripper(), "feed", refuse)
        assert clean_text(page) == ("瓷砖铺贴 第00007号\n\n先清理基层，再弹线定位。\n\n"
                                    "铺贴后养护七天 详见 。\n\n本站内容仅供参考。")
        assert clean_text(plain) == plain


class TestPlainTextBypass:
    """Text holding neither "<" nor "&" is one text token, so strip_markup
    gives it back unchanged without compiling the token regex."""

    def plain_texts(self):
        rng = random.Random(23)
        pieces = ["design", "a > b", "x;y", "#65", "amp", "lt;", "'q'", '"r"', "=", "/", "!--", "-->", "]]>",
                  "http://a.example.com/x?q=1", "。", "\U00020001", *ISSPACE]
        yield ""
        yield "".join(ISSPACE)
        yield from ISSPACE
        for _ in range(600):
            yield "".join(rng.choice([cjk_text(rng, rng.randint(1, 12)), *pieces])
                          for _ in range(rng.randint(1, 20)))

    def test_equals_the_token_scan_and_html_parser(self):
        for text in self.plain_texts():
            assert _strip_tokens(text) == text == html_parser_text(text), ascii(text)
            assert strip_markup(text) == text, ascii(text)

    def test_never_compiles_the_token_regex(self, monkeypatch):
        want = [clean_text(text) for text in self.plain_texts()]

        def refuse():
            raise AssertionError("the token regex was compiled for plain text")

        monkeypatch.setattr(ingest, "_markup_token_re", refuse)
        for text, cleaned in zip(self.plain_texts(), want):
            assert strip_markup(text) == text, ascii(text)
            assert clean_text(text) == cleaned, ascii(text)

    def test_text_with_markup_still_equals_html_parser(self):
        rng = random.Random(24)
        marks = ["<p>", "</p>", "&amp;", "&", "<", "3 < 5", "A & B", "<br/>", "&#65;", "<!-- x -->"]
        for text in self.plain_texts():
            at = rng.randrange(len(text) + 1)
            marked = text[:at] + rng.choice(marks) + text[at:]
            assert strip_markup(marked) == html_parser_text(marked), ascii(marked)

    def test_a_plain_text_run_never_compiles_the_token_regex(self, tmp_path):
        config_path = write_pipeline_fixture(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        inputs = config["ingest"]["inputs"]
        config["ingest"]["inputs"] = [i for i in inputs if not i["path"].endswith(".html")]
        assert len(config["ingest"]["inputs"]) == len(inputs) - 2
        config_path.write_text(json.dumps(config, ensure_ascii=False), encoding="utf-8")
        ingest._markup_token_re.cache_clear()
        manifest = run_pipeline(config_path, tmp_path / "out")
        assert [s.stage for s in manifest.stages] == ["ingest", "filter", "dedup", "mix"]
        assert ingest._markup_token_re.cache_info().currsize == 0


# --- table lines: the pre-check against the formula it guards -----------------------


def oracle_is_table_line(line: str) -> bool:
    """_is_table_line as it was before the separator pre-check."""
    non_ws = len(re.findall(r"\S", line))
    pipes = sum(line.count(ch) for ch in "|│║┃")
    if pipes >= 2 and pipes / max(1, non_ws) > 0.30:
        return True
    tabs = line.count("\t")
    return tabs >= 2 and tabs / max(1, tabs + non_ws) > 0.30


class TestTableLines:
    ALPHABET = ["|", "│", "║", "┃", "\t", " ", "\u3000", "\xa0", "甲", "乙", "a", "Z", "9"]

    def lines(self):
        rng = random.Random(6)
        for _ in range(3000):
            yield "".join(rng.choice(self.ALPHABET) for _ in range(rng.randint(0, 20)))
        # exactly one and exactly two separators, among a varying number of other characters
        for sep in "|│║┃\t":
            for n in range(1, 3):
                for others in range(0, 12):
                    chars = [sep] * n + [rng.choice(["甲", "a", " ", "\u3000"]) for _ in range(others)]
                    rng.shuffle(chars)
                    yield "".join(chars)

    def test_matches_the_old_formula(self):
        verdicts = set()
        for line in self.lines():
            verdict = oracle_is_table_line(line)
            assert _is_table_line(line) == verdict, repr(line)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_lines_with_fewer_than_two_separators_skip_the_count(self, monkeypatch):
        class Unused:
            def sub(self, *args):
                raise AssertionError("counted the non-whitespace characters")

        monkeypatch.setattr(ingest, "_SPACE_RUN_RE", Unused())
        assert not _is_table_line("甲|乙\t丙")
        assert not _is_table_line("")

    def texts(self):
        """Texts holding exactly one or exactly two of a separator, within one
        line or split across lines, among short lines of other characters."""
        rng = random.Random(8)
        for sep in "|│║┃\t":
            for n in (1, 2):
                for _ in range(40):
                    lines = ["".join(rng.choice(["甲", "a", " ", "\u3000"]) for _ in range(rng.randint(0, 4)))
                             for _ in range(rng.randint(1, 4))]
                    for _ in range(n):
                        at = rng.randrange(len(lines))
                        pos = rng.randint(0, len(lines[at]))
                        lines[at] = lines[at][:pos] + sep + lines[at][pos:]
                    yield "\n".join(lines)
        yield "甲|乙\t丙\n丁"

    def test_drop_matches_the_line_by_line_verdicts(self):
        dropped = 0
        for text in self.texts():
            want = "\n".join(line for line in text.split("\n") if not oracle_is_table_line(line))
            assert _drop_table_lines(text) == want, repr(text)
            dropped += want != text
        assert dropped

    def test_texts_with_fewer_than_two_separators_skip_the_lines(self, monkeypatch):
        def unused(line):
            raise AssertionError("judged a line")

        monkeypatch.setattr(ingest, "_is_table_line", unused)
        texts = [t for t in self.texts() if sum(t.count(ch) for ch in "|│║┃") < 2 and t.count("\t") < 2]
        assert len(texts) > 100
        for text in texts:
            assert _drop_table_lines(text) is text


# The URL pattern before the (?=[hfw]) lookahead, kept as the oracle.
OLD_URL_RE = re.compile(
    r"(?:(?:https?|ftp)://|(?<![A-Za-z0-9.])www\.)"
    r"[A-Za-z0-9._~:/?#@!$&'()*+;=%\[\]-]*"
)


class TestUrlPattern:
    URL_CHARS = "abcfhtpwxyzABFHW019._~:/?#@!$&'()*+;=%[]-"
    FRAGMENTS = ["www.", "://", "http", "https://", "ftp://", "www", "wWw.", "hfw", ".", "地板", "防水施工", " ",
                 "\n", "<p>", "。", "详见 "]

    def strings(self):
        rng = random.Random(21)
        for _ in range(20000):
            parts = []
            for _ in range(rng.randint(0, 12)):
                if rng.random() < 0.4:
                    parts.append(rng.choice(self.FRAGMENTS))
                else:
                    parts.append("".join(rng.choice(self.URL_CHARS) for _ in range(rng.randint(1, 5))))
            yield "".join(parts)

    def pages(self):
        """Web pages shaped like the benchmark's: a URL among CJK prose, in and out of markup."""
        rng = random.Random(22)
        for n in range(200):
            body = cjk_text(rng, 120)
            yield (f"<html><head><title>{body[:6]}</title></head><body><p>{body[:60]}</p>"
                   f"<img src=\"/img/{n}.png\"/><p>{body[60:]} 详见 https://www.example.com/item/{n}.html 。"
                   f"或 www.example.cn/{n}，ftp://files.example.com/{n}.pdf</p></body></html>")

    def test_matches_the_old_pattern(self):
        removed = 0
        for text in [*self.strings(), *self.pages()]:
            expected = OLD_URL_RE.sub("", text)
            assert ingest._URL_RE.sub("", text) == expected, repr(text)
            removed += expected != text
        assert removed > 2000


class TestCleanTextUrlSkip:
    """clean_text runs the URL pattern only on a text holding "://" or "www.";
    every text must come out as from the old cleaning, which always ran it."""

    @staticmethod
    def old_clean_text(text: str) -> str:
        text = strip_markup(ingest._MD_IMAGE_RE.sub(" ", text))
        return oracle_normalize_whitespace(ingest._drop_table_lines(OLD_URL_RE.sub("", text)))

    def test_texts_without_a_url_mark_skip_the_pattern(self, monkeypatch):
        class Unused:
            def sub(self, repl, text):
                raise AssertionError(f"URL pattern ran on {text!r}")

        texts = [t for t in TestUrlPattern().strings()
                 if not any(mark in strip_markup(ingest._MD_IMAGE_RE.sub(" ", t)) for mark in ("://", "www."))]
        assert len(texts) > 5000
        assert sum(any(frag in t for frag in ("http", "ftp", "www")) for t in texts) > 1000
        expected = [self.old_clean_text(t) for t in texts]
        monkeypatch.setattr(ingest, "_URL_RE", Unused())
        for text, want in zip(texts, expected):
            assert clean_text(text) == want, repr(text)

    def test_every_text_matches_the_old_cleaning(self):
        for text in [*TestUrlPattern().strings(), *TestUrlPattern().pages()]:
            assert clean_text(text) == self.old_clean_text(text), repr(text)


# normalize_whitespace before it became whole-text passes, kept as the oracle.
_OLD_WS_RUN_RE = re.compile("[ \t\u00a0\u3000]+")


def oracle_normalize_whitespace(text: str) -> str:
    lines = [_OLD_WS_RUN_RE.sub(" ", line).strip() for line in text.split("\n")]
    out: list[str] = []
    for line in lines:
        if line == "" and (not out or out[-1] == ""):
            continue
        out.append(line)
    while out and out[-1] == "":
        out.pop()
    return "\n".join(out)


# Every str.isspace character: \t-\r, \x1c-\x1f, space, \x85, U+00A0, U+1680, U+2000-U+200A,
# U+2028, U+2029, U+202F, U+205F and U+3000, the last of them.
ISSPACE = [chr(cp) for cp in range(0x3001) if chr(cp).isspace()]


class TestNormalizeWhitespace:
    def texts(self):
        rng = random.Random(31)
        alphabet = [*ISSPACE, "\r\n", "\n\n", "\n\n\n", "\n \n", "  ", "\u3000\u3000", "甲", "乙", "a", "b", "。"]
        for _ in range(20000):
            yield "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        yield from ("", "\n", "\n\n\n", " \n \n ", "甲\r\n\r\n\r\n乙", "\u3000甲\u00a0\t乙\u3000", "\x85甲\x85",
                    "\u2028\n\u2029", "甲\n\x0b\n\x0c\n乙", "\n\n甲\n\n\n\n\n乙\n\n")

    def test_matches_the_per_line_oracle(self):
        changed = 0
        for text in self.texts():
            want = oracle_normalize_whitespace(text)
            assert ingest.normalize_whitespace(text) == want, ascii(text)
            changed += want != text
        assert changed > 10000

    def test_every_isspace_character_alone_and_in_runs(self):
        for ch in ISSPACE:
            for text in (ch, f"甲{ch}乙", f"{ch}甲{ch}{ch}乙{ch}", f"甲\n{ch}\n\n{ch}\n乙", f"{ch}\n甲"):
                assert ingest.normalize_whitespace(text) == oracle_normalize_whitespace(text), ascii(text)

    def test_is_a_fixpoint(self):
        for text in self.texts():
            once = ingest.normalize_whitespace(text)
            assert ingest.normalize_whitespace(once) == once, ascii(text)


class TestTokenizer:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_mixed_cjk_and_word(self):
        assert count_tokens("厨房 design") == 3

    def test_deterministic(self):
        text = "水电改造 basics 注意事项 101"
        assert count_tokens(text) == count_tokens(text)

    def test_punctuation_not_counted(self):
        assert count_tokens("你好，世界。") == 4


class TestIngestStream:
    def make_records(self, n: int = 30) -> list[RawRecord]:
        rng = random.Random(9)
        records = []
        for i in range(n):
            kind = ("domain_book", "general", "domain_website")[i % 3]
            records.append(rec(cjk_text(rng, 40 + i), kind=kind, sid=f"s{i}"))
        records.append(RawRecord("bad-bytes", "general", b"\xff\xff"))
        records.append(rec("<img src='nothing'/>", sid="img-only"))
        return records

    def test_failures_recorded_not_raised(self):
        docs, stats = ingest_stream(self.make_records())
        assert stats.failures == {"decode_error": 1, "empty_after_extraction": 1}
        assert len(docs) == 30

    def test_order_and_worker_invariance(self):
        records = self.make_records()
        docs1, stats1 = ingest_stream(records)
        docs2, stats2 = ingest_stream(list(reversed(records)))
        assert [d.to_dict() for d in docs1] == [d.to_dict() for d in docs2]
        assert stats1.to_dict() == stats2.to_dict()

    def test_token_accounting_matches_documents(self):
        docs, stats = ingest_stream(self.make_records())
        for kind in ("domain_book", "general", "domain_website"):
            expected = sum(d.token_count for d in docs if d.source_kind == kind)
            assert stats.tokens.get(kind, 0) == expected
        assert stats.total_tokens == sum(d.token_count for d in docs)


class TestFiles:
    def test_document_roundtrip(self, tmp_path):
        docs, _ = ingest_stream([rec("地板安装流程说明", sid="a"), rec("防水施工要点", sid="b")])
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, docs)
        loaded = read_documents(path)
        assert [d.to_dict() for d in loaded] == [d.to_dict() for d in docs]

    def test_jsonl_records_carry_their_own_kind(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"id": "x", "text": "通用语料内容", "kind": "general"}\n'
            '{"id": "y", "text": "书籍内容"}\n',
            encoding="utf-8",
        )
        records = list(records_from_path(path, "domain_book"))
        assert [r.source_kind for r in records] == ["general", "domain_book"]

    def test_lone_surrogate_row_is_a_decode_error(self, tmp_path):
        # JSON can escape a lone surrogate, which no UTF-8 byte string holds
        path = tmp_path / "raw.jsonl"
        path.write_text('{"id": "x", "text": "装修知识很重要。\\ud800"}\n{"id": "y", "text": "防水施工要点"}\n',
                        encoding="utf-8")
        docs, stats = ingest_stream(list(records_from_path(path, "domain_book")))
        assert stats.failures == {"decode_error": 1}
        assert [d.text for d in docs] == ["防水施工要点"]

    @pytest.mark.parametrize("kind", ['"blog"', "5"])
    def test_bad_row_kind_names_the_file_and_line(self, tmp_path, kind):
        path = tmp_path / "raw.jsonl"
        path.write_text(f'{{"id": "x", "text": "书籍内容", "kind": {kind}}}\n', encoding="utf-8")
        with pytest.raises(SchemaError, match="raw.jsonl: line 1: source_kind must be one of"):
            list(records_from_path(path, "domain_book"))

    def test_txt_file_single_record(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("整篇文章作为一条记录", encoding="utf-8")
        (record,) = records_from_path(path, "domain_book")
        assert record.source_id == "a.txt"
        assert record.payload.decode("utf-8").startswith("整篇")

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        write_jsonl(path, [{"n": 0}])

        def rows():
            yield {"n": 1}
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            write_jsonl(path, rows())
        assert path.read_text(encoding="utf-8") == '{"n": 0}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["docs.jsonl"]


class TestIngestStage:
    def write_raw(self, tmp_path, bad_row: bool = False):
        path = tmp_path / "raw.jsonl"
        rows = [{"id": f"r{i}", "text": f"第{i}篇装修知识内容。"} for i in range(3)]
        write_jsonl(path, rows + [{"id": "bad"}] * bad_row)
        return path

    def test_records_are_extracted_as_they_are_read(self, tmp_path, monkeypatch):
        events = []
        read, extract = ingest.read_jsonl, ingest.clean_record

        def reading(path):
            for row in read(path):
                events.append("read")
                yield row

        def extracting(record):
            events.append("extract")
            return extract(record)

        monkeypatch.setattr(ingest, "read_jsonl", reading)
        monkeypatch.setattr(ingest, "clean_record", extracting)
        _, stats = run_ingest_stage([(self.write_raw(tmp_path), "domain_book")], tmp_path / "docs.jsonl", None)
        assert stats.total_documents == 3
        assert events == ["read", "extract"] * 3

    def test_bad_row_raises_before_any_file_is_written(self, tmp_path):
        raw = self.write_raw(tmp_path, bad_row=True)
        with pytest.raises(SchemaError, match="raw.jsonl: line 4: missing 'text'"):
            run_ingest_stage([(raw, "domain_book")], tmp_path / "docs.jsonl", tmp_path / "stats.json")
        assert [p.name for p in tmp_path.iterdir()] == ["raw.jsonl"]
