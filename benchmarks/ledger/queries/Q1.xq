<XMark-Q1>{
  for $s in /site return
  for $pl in $s/people return
  for $p in $pl/person return
    if ($p/id = "person0") then $p/name/text() else ()
}</XMark-Q1>
