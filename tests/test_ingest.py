from __future__ import annotations

import random

import pytest

from renokit.errors import DecodeError, EmptyAfterExtraction, SchemaError
from renokit.ingest import (
    Document,
    RawRecord,
    clean_text,
    extract_text,
    ingest_stream,
    read_documents,
    records_from_path,
    write_documents,
)
from renokit.jsonl import write_jsonl
from renokit.tokenizers import count_tokens

from fixture_data import cjk_text


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
        write_documents(path, docs)
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
